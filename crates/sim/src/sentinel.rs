//! Runtime invariant sentinel: the engine checks itself while it runs.
//!
//! The paper's stability results are *certificates* — Theorems 4.1/4.3
//! and Observation 4.4 give explicit per-buffer bounds that must hold
//! on every trajectory. Post-hoc verification (`aqt-core`'s
//! `check_c_invariant`, experiment E14) catches a corrupted run only
//! after hours of compute have been spent on garbage. The sentinel
//! evaluates a set of pluggable invariants *online*, at a configurable
//! cadence, under one severity policy:
//!
//! * [`InvariantKind::Conservation`] — the fault-aware packet
//!   conservation law `injected + duplicated = absorbed + dropped +
//!   backlog`, recounted from the actual buffers (not from the cached
//!   counter).
//! * [`InvariantKind::UnitSpeed`] — per-edge capacity: an edge crosses
//!   at most one packet per step, so crossings over any interval are
//!   bounded by its length.
//! * [`InvariantKind::RouteProgress`] — monotone route progress: every
//!   queued packet sits in the buffer of its current route edge, with
//!   `hop` in range and coherent timestamps.
//! * [`InvariantKind::SnapshotRoundTrip`] — a capture of the current
//!   state is internally consistent and survives a reference-model
//!   round trip bit-for-bit (checkpoint integrity, checked live).
//! * [`InvariantKind::Certificate`] — a theorem-derived wait bound
//!   ([`CertificateSpec`]): `⌈wr⌉` for `r ≤ 1/(d+1)` greedy runs, the
//!   `1/d` time-priority variant, and the S-degraded Observation 4.4
//!   bounds.
//! * [`InvariantKind::OracleDivergence`] — raised by the lockstep
//!   differential oracle ([`crate::oracle`]) when the optimized
//!   pipeline and the naive reference engine disagree.
//! * [`InvariantKind::GadgetInvariant`] — reserved for external
//!   checkers (`aqt-core`'s `C(S, F_n)` enforcement); the engine never
//!   raises it itself.
//! * [`InvariantKind::RequestConservation`] — the closed-loop request
//!   ledger partition (`aqt-workload`): every issued request is exactly
//!   one of completed, abandoned, shed, or in-flight. Like the gadget
//!   invariant, raised by an external checker, never by the engine.
//!
//! A violation at [`Severity::Halt`] aborts the run with a typed error
//! carrying a [`ReproBundle`] — seed, step, state snapshot, and fault
//! plan — enough to replay the failure in isolation. At
//! [`Severity::Quarantine`] the report (bundle included) is retained on
//! the sentinel and the run continues; at [`Severity::Log`] only the
//! violation itself is recorded.
//!
//! Every invariant family is catalogued in the repository-level
//! `INVARIANTS.md` (formal statement, how it is tested, what breaks
//! if it is violated); [`InvariantKind::ALL`] is the exhaustiveness
//! anchor the catalog test checks against, and the `aqt-campaign`
//! crate drives a coverage-directed fuzz campaign over these checks.

use crate::fault::FaultPlan;
use crate::metrics::{BacklogSample, Metrics};
use crate::packet::Time;
use crate::ratio::Ratio;
use crate::snapshot::Snapshot;

/// What happens when an invariant is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Record the violation on the sentinel's log and continue.
    Log,
    /// Record a full [`ViolationReport`] (repro bundle included) on the
    /// sentinel's quarantine list and continue.
    Quarantine,
    /// Abort the run with `EngineError::Invariant` (surfaced as
    /// [`crate::SimError::InvariantViolated`]).
    Halt,
}

/// The invariant families the sentinel evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Packet conservation, recounted from the buffers.
    Conservation,
    /// Per-edge unit-speed capacity.
    UnitSpeed,
    /// Route-progress monotonicity and placement coherence.
    RouteProgress,
    /// Snapshot capture/restore round-trip integrity.
    SnapshotRoundTrip,
    /// A theorem-derived per-buffer wait bound.
    Certificate,
    /// The lockstep differential oracle observed a divergence.
    OracleDivergence,
    /// A gadget invariant checked by an external verifier (aqt-core).
    GadgetInvariant,
    /// The closed-loop request ledger partition, checked by an external
    /// verifier (aqt-workload): issued = completed + abandoned + shed +
    /// in-flight.
    RequestConservation,
}

impl InvariantKind {
    /// Every invariant family the sentinel ships, in declaration order.
    ///
    /// The authoritative enumeration for exhaustiveness checks: the
    /// `INVARIANTS.md` catalog test iterates this array so a newly
    /// added variant without a catalog entry (or vice versa) fails CI,
    /// and the campaign coverage map uses it to label breach features.
    pub const ALL: [InvariantKind; 8] = [
        InvariantKind::Conservation,
        InvariantKind::UnitSpeed,
        InvariantKind::RouteProgress,
        InvariantKind::SnapshotRoundTrip,
        InvariantKind::Certificate,
        InvariantKind::OracleDivergence,
        InvariantKind::GadgetInvariant,
        InvariantKind::RequestConservation,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::Conservation => "conservation",
            InvariantKind::UnitSpeed => "unit-speed",
            InvariantKind::RouteProgress => "route-progress",
            InvariantKind::SnapshotRoundTrip => "snapshot-round-trip",
            InvariantKind::Certificate => "certificate",
            InvariantKind::OracleDivergence => "oracle-divergence",
            InvariantKind::GadgetInvariant => "gadget-invariant",
            InvariantKind::RequestConservation => "request-conservation",
        }
    }
}

/// A theorem-derived per-buffer wait bound, enforceable online.
///
/// Mirrors `aqt-core`'s `StabilityCertificate` arithmetic (the
/// dependency points the other way, so the calculator is duplicated
/// here and pinned equal by aqt-core's tests): Theorem 4.1 gives
/// `⌈wr⌉` for any greedy protocol at `r ≤ 1/(d+1)`; Theorem 4.3 the
/// same at `r ≤ 1/d` for time-priority protocols; Observation 4.4 /
/// Corollaries 4.5–4.6 the S-degraded bound `⌈w*/k⌉` with
/// `w* = ⌈(S+w+1)/(1/k − r)⌉` when `r` is strictly below the class
/// threshold `1/k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertificateSpec {
    /// The adversary's window `w`.
    pub window: u64,
    /// The adversary's rate `r`.
    pub rate: Ratio,
    /// Length of the longest packet route, `d`.
    pub d: u64,
    /// `S` of the initial configuration (0 = empty start).
    pub initial: u64,
    /// Does the protocol qualify as time-priority (Definition 4.2)?
    pub time_priority: bool,
}

impl CertificateSpec {
    /// `⌈(S+w+1)/(1/k − r)⌉`, exact; `None` if `r ≥ 1/k`.
    fn w_star(&self, k: u64) -> Option<u64> {
        let num = self.rate.num();
        let den = self.rate.den();
        let gap_num = (den as u128).checked_sub(num as u128 * k as u128)?;
        if gap_num == 0 {
            return None;
        }
        let s_w_1 = (self.initial + self.window + 1) as u128;
        let prod = s_w_1 * den as u128 * k as u128;
        Some(prod.div_ceil(gap_num) as u64)
    }

    /// The bound against threshold `1/k`: `⌈wr⌉` for an empty start
    /// with `r ≤ 1/k`, `⌈w*/k⌉` for an S-start with `r < 1/k`.
    fn bound_with_threshold(&self, k: u64) -> Option<u64> {
        if k == 0 {
            return None;
        }
        if self.initial == 0 {
            if self.rate.le_frac(1, k) {
                Some(self.rate.ceil_mul(self.window))
            } else {
                None
            }
        } else {
            self.w_star(k).map(|w| w.div_ceil(k))
        }
    }

    /// The enforceable per-buffer wait bound, or `None` when no
    /// theorem applies at this rate. Time-priority protocols first try
    /// the `1/d` threshold, falling back to the greedy `1/(d+1)`.
    pub fn bound(&self) -> Option<u64> {
        if self.time_priority {
            self.bound_with_threshold(self.d)
                .or_else(|| self.bound_with_threshold(self.d + 1))
        } else {
            self.bound_with_threshold(self.d + 1)
        }
    }
}

/// The snapshot round-trip check (allocates a full state capture) runs
/// every `cadence × ROUNDTRIP_STRIDE` steps.
const ROUNDTRIP_STRIDE: u64 = 512;

/// Sentinel configuration: check cadence and the severity policy.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Base cadence in steps: the cheap O(E) checks (conservation,
    /// unit-speed, the certificate peak) run at every step `t` with
    /// `t % cadence == 0`. 0 disables all checks.
    pub cadence: Time,
    /// The O(backlog) per-packet checks (route progress, the
    /// certificate's in-buffer wait scan) run every
    /// `cadence × deep_stride` steps. 0 disables them.
    pub deep_stride: u64,
    /// What a violation of any invariant the engine checks does.
    pub severity: Severity,
    /// The theorem bound to enforce, if one applies to this run.
    pub certificate_spec: Option<CertificateSpec>,
    /// The run's RNG seed (free-form), stamped into repro bundles.
    pub seed: Option<u64>,
}

impl Default for SentinelConfig {
    /// Every invariant at [`Severity::Halt`], cadence 1024 with the
    /// per-packet checks every 64 cadences and the round-trip check
    /// every 512 (the < 5% overhead point measured by the benchmark's
    /// `sim.sentinel_ns_per_step`, `crates/benchmark`: the O(backlog)
    /// scans are what hurt when a step costs tens of nanoseconds, so
    /// they are strided far apart by default; shorten the cadence and
    /// stride for debugging runs).
    fn default() -> Self {
        SentinelConfig {
            cadence: 1024,
            deep_stride: 64,
            severity: Severity::Halt,
            certificate_spec: None,
            seed: None,
        }
    }
}

impl SentinelConfig {
    /// The default policy: everything halts.
    pub fn all_halt() -> Self {
        SentinelConfig::default()
    }

    /// Set the base cadence (builder style).
    pub fn with_cadence(mut self, cadence: Time) -> Self {
        self.cadence = cadence;
        self
    }

    /// Enforce a theorem bound (builder style).
    pub fn with_certificate(mut self, spec: CertificateSpec) -> Self {
        self.certificate_spec = Some(spec);
        self
    }

    /// Stamp repro bundles with the run's seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Set the severity of every invariant the engine checks (builder
    /// style). [`InvariantKind::GadgetInvariant`] and
    /// [`InvariantKind::RequestConservation`] are raised by external
    /// checkers, which dispatch their own severity.
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant failed.
    pub kind: InvariantKind,
    /// The step at which the sentinel observed the failure.
    pub time: Time,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant '{}' violated at step {}: {}",
            self.kind.name(),
            self.time,
            self.detail
        )
    }
}

/// The minimal reproduction bundle attached to quarantined and halting
/// violations: everything needed to reconstruct the failing state in a
/// fresh engine (`crate::snapshot::restore` the snapshot, re-install
/// the fault plan, re-run).
#[derive(Debug, Clone, PartialEq)]
pub struct ReproBundle {
    /// The run's RNG seed, if the sentinel was told one.
    pub seed: Option<u64>,
    /// The step at which the violation was observed.
    pub step: Time,
    /// The network state at observation time.
    pub snapshot: Snapshot,
    /// The installed fault plan, if any.
    pub fault_plan: Option<FaultPlan>,
    /// The engine's sampled backlog series up to the violation
    /// (empty when [`crate::EngineConfig::sample_every`] is 0) — the
    /// queue trajectory that led to the failing state, so a finding
    /// can be triaged without replaying the run.
    pub backlog: Vec<BacklogSample>,
}

impl ReproBundle {
    /// The telemetry [`crate::telemetry::Provenance`] this bundle
    /// corresponds to: same seed, same fault-plan id. A telemetry JSONL
    /// line whose provenance fields match is from the same run as this
    /// bundle. `protocol` and `schedule_hash` are supplied by the
    /// caller — a bundle does not record them itself.
    pub fn provenance(
        &self,
        protocol: impl Into<String>,
        schedule_hash: Option<u64>,
    ) -> crate::telemetry::Provenance {
        crate::telemetry::Provenance {
            seed: self.seed,
            schedule_hash,
            protocol: protocol.into(),
            fault_plan_id: self.fault_plan.as_ref().map(|p| p.plan_id()),
            model_fingerprint: None,
        }
    }
}

/// A violation plus its reproduction bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// What failed.
    pub violation: Violation,
    /// How to replay it.
    pub bundle: ReproBundle,
}

impl std::fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (repro: seed={}, step={}, snapshot backlog={}, faults={})",
            self.violation,
            self.bundle
                .seed
                .map_or_else(|| "unset".into(), |s| s.to_string()),
            self.bundle.step,
            self.bundle
                .snapshot
                .buffers
                .iter()
                .map(|b| b.len() as u64)
                .sum::<u64>(),
            if self.bundle.fault_plan.is_some() {
                "installed"
            } else {
                "none"
            }
        )
    }
}

/// The sentinel's dynamic state — checkpointed with the engine so a
/// resumed run keeps its check phase and its accumulated findings.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelState {
    /// Time of the last completed check (baseline for the unit-speed
    /// interval).
    pub(crate) last_check: Time,
    /// Per-edge crossing counters at the last check.
    pub(crate) crossings_at_last_check: Vec<u64>,
    /// Violations recorded at [`Severity::Log`].
    pub(crate) log: Vec<Violation>,
    /// Violations recorded at [`Severity::Quarantine`].
    pub(crate) quarantine: Vec<ViolationReport>,
    /// Number of completed check rounds.
    pub(crate) checks_run: u64,
}

/// The attached sentinel: configuration plus dynamic state. Created by
/// `Engine::attach_sentinel`, inspected through `Engine::sentinel`.
#[derive(Debug, Clone)]
pub struct Sentinel {
    pub(crate) cfg: SentinelConfig,
    pub(crate) state: SentinelState,
}

impl Sentinel {
    pub(crate) fn new(cfg: SentinelConfig, now: Time, crossings: &[u64]) -> Self {
        Sentinel {
            cfg,
            state: SentinelState {
                last_check: now,
                crossings_at_last_check: crossings.to_vec(),
                log: Vec::new(),
                quarantine: Vec::new(),
                checks_run: 0,
            },
        }
    }

    /// The configuration the sentinel was attached with.
    pub fn config(&self) -> &SentinelConfig {
        &self.cfg
    }

    /// Violations recorded at [`Severity::Log`].
    pub fn log(&self) -> &[Violation] {
        &self.state.log
    }

    /// Violations recorded at [`Severity::Quarantine`], bundles
    /// included.
    pub fn quarantined(&self) -> &[ViolationReport] {
        &self.state.quarantine
    }

    /// Number of completed check rounds.
    pub fn checks_run(&self) -> u64 {
        self.state.checks_run
    }

    /// No violations observed at any severity?
    pub fn is_clean(&self) -> bool {
        self.state.log.is_empty() && self.state.quarantine.is_empty()
    }

    /// Is a check round due at step `t`? A threshold against the last
    /// completed round, not `t % cadence`; under normal 1-step
    /// advancement rounds still land exactly on cadence multiples (so
    /// the stride checks below, which *are* modular, stay aligned).
    #[inline]
    pub fn due(&self, t: Time) -> bool {
        self.cfg.cadence > 0 && t >= self.state.last_check.saturating_add(self.cfg.cadence)
    }

    /// Do the O(backlog) per-packet checks run this round?
    pub(crate) fn deep_due(&self, t: Time) -> bool {
        self.cfg.deep_stride > 0
            && t.is_multiple_of(self.cfg.cadence.saturating_mul(self.cfg.deep_stride))
    }

    /// Does the snapshot round-trip check run this round?
    pub(crate) fn roundtrip_due(&self, t: Time) -> bool {
        t.is_multiple_of(self.cfg.cadence.saturating_mul(ROUNDTRIP_STRIDE))
    }

    pub fn state(&self) -> &SentinelState {
        &self.state
    }

    pub(crate) fn set_state(&mut self, state: SentinelState) {
        self.state = state;
    }
}

/// Pure check: the fault-aware conservation law against an independent
/// recount of the live packets. `None` when the books balance.
pub(crate) fn conservation_violation(m: &Metrics, live: u64) -> Option<String> {
    let sources = m.injected.checked_add(m.duplicated);
    let sinks = m
        .absorbed
        .checked_add(m.dropped)
        .and_then(|s| s.checked_add(live));
    match (sources, sinks) {
        (Some(a), Some(b)) if a == b => None,
        _ => Some(format!(
            "injected {} + duplicated {} != absorbed {} + dropped {} + live {}",
            m.injected, m.duplicated, m.absorbed, m.dropped, live
        )),
    }
}

/// Pure check: unit-speed capacity — no edge may cross more packets
/// over `[last, now]` than the interval has steps. `None` when every
/// edge is within capacity.
pub(crate) fn unit_speed_violation(prev: &[u64], now: &[u64], elapsed: u64) -> Option<String> {
    if prev.len() != now.len() {
        return Some(format!(
            "crossing baseline has {} edges but the engine has {}",
            prev.len(),
            now.len()
        ));
    }
    for (e, (&a, &b)) in prev.iter().zip(now).enumerate() {
        let Some(crossed) = b.checked_sub(a) else {
            return Some(format!(
                "edge {e} crossing counter regressed from {a} to {b}"
            ));
        };
        if crossed > elapsed {
            return Some(format!(
                "edge {e} crossed {crossed} packets in {elapsed} steps (capacity is 1/step)"
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_spec_matches_the_theorems() {
        // Theorem 4.1: d = 3, r = 1/4, w = 10 -> ⌈10/4⌉ = 3
        let c = CertificateSpec {
            window: 10,
            rate: Ratio::new(1, 4),
            d: 3,
            initial: 0,
            time_priority: false,
        };
        assert_eq!(c.bound(), Some(3));
        // r above 1/(d+1): no theorem applies
        let c = CertificateSpec {
            rate: Ratio::new(26, 100),
            ..c
        };
        assert_eq!(c.bound(), None);
        // Theorem 4.3: time-priority extends to r = 1/d
        let c = CertificateSpec {
            window: 9,
            rate: Ratio::new(1, 3),
            d: 3,
            initial: 0,
            time_priority: true,
        };
        assert_eq!(c.bound(), Some(3));
        let greedy = CertificateSpec {
            time_priority: false,
            ..c
        };
        assert_eq!(greedy.bound(), None);
    }

    #[test]
    fn certificate_spec_s_degraded_bounds() {
        // Corollary 4.5: d = 2, r = 1/4 < 1/3, w = 5, S = 20:
        // w* = ⌈26·12⌉ = 312, bound ⌈312/3⌉ = 104
        let c = CertificateSpec {
            window: 5,
            rate: Ratio::new(1, 4),
            d: 2,
            initial: 20,
            time_priority: false,
        };
        assert_eq!(c.bound(), Some(104));
        // Corollary 4.6: time-priority threshold 1/2 -> w* = 104, bound 52
        let tp = CertificateSpec {
            time_priority: true,
            ..c
        };
        assert_eq!(tp.bound(), Some(52));
        // strict inequality required with S > 0
        let at_threshold = CertificateSpec {
            rate: Ratio::new(1, 3),
            ..c
        };
        assert_eq!(at_threshold.bound(), None);
    }

    #[test]
    fn conservation_check() {
        let mut m = Metrics::new(1);
        m.injected = 10;
        m.duplicated = 2;
        m.dropped = 3;
        m.absorbed = 4;
        assert!(conservation_violation(&m, 5).is_none());
        let v = conservation_violation(&m, 6).expect("books off by one");
        assert!(v.contains("injected 10"));
    }

    #[test]
    fn unit_speed_check() {
        assert!(unit_speed_violation(&[3, 0], &[5, 2], 2).is_none());
        let v = unit_speed_violation(&[3, 0], &[5, 3], 2).expect("edge 1 over capacity");
        assert!(v.contains("edge 1"));
        // a regressing counter is itself a violation
        assert!(unit_speed_violation(&[3], &[2], 5).is_some());
    }

    #[test]
    fn cadence_gating() {
        let cfg = SentinelConfig {
            cadence: 4,
            deep_stride: 2,
            ..SentinelConfig::default()
        };
        let s = Sentinel::new(cfg, 0, &[]);
        assert!(!s.due(3));
        assert!(s.due(4));
        assert!(!s.deep_due(4));
        assert!(s.deep_due(8));
        assert!(!s.roundtrip_due(8));
        assert!(!s.roundtrip_due(4 * ROUNDTRIP_STRIDE - 4));
        assert!(s.roundtrip_due(4 * ROUNDTRIP_STRIDE));
        let off = Sentinel::new(
            SentinelConfig {
                cadence: 0,
                ..SentinelConfig::default()
            },
            0,
            &[],
        );
        assert!(!off.due(256));
    }

    #[test]
    fn severity_policy_lookup() {
        assert_eq!(SentinelConfig::default().severity, Severity::Halt);
        let cfg = SentinelConfig::all_halt().with_severity(Severity::Log);
        assert_eq!(cfg.severity, Severity::Log);
    }

    #[test]
    fn all_kinds_have_distinct_stable_names() {
        let names: Vec<&str> = InvariantKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), InvariantKind::ALL.len());
        assert!(names.contains(&"conservation"));
        assert!(names.contains(&"gadget-invariant"));
        assert!(names.contains(&"request-conservation"));
    }

    #[test]
    fn report_display_carries_repro_facts() {
        let rep = ViolationReport {
            violation: Violation {
                kind: InvariantKind::Conservation,
                time: 42,
                detail: "books off".into(),
            },
            bundle: ReproBundle {
                seed: Some(7),
                step: 42,
                snapshot: Snapshot {
                    schema: crate::snapshot::SNAPSHOT_SCHEMA_VERSION,
                    time: 42,
                    routes: vec![],
                    buffers: vec![vec![], vec![]],
                    next_id: 0,
                    injected: 0,
                    absorbed: 0,
                    dropped: 0,
                    duplicated: 0,
                },
                fault_plan: None,
                backlog: vec![],
            },
        };
        let s = rep.to_string();
        assert!(s.contains("conservation"));
        assert!(s.contains("step 42"));
        assert!(s.contains("seed=7"));
        assert!(s.contains("faults=none"));
    }
}
