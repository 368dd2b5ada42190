//! Runtime invariant sentinel: the engine checks itself while it runs.
//!
//! The paper's stability results are *certificates* — Theorems 4.1/4.3
//! and Observation 4.4 give explicit per-buffer bounds that must hold
//! on every trajectory. Post-hoc verification (`aqt-core`'s
//! `check_c_invariant`, experiment E14) catches a corrupted run only
//! after hours of compute have been spent on garbage. The sentinel
//! evaluates a set of pluggable invariants *online*, at a configurable
//! cadence:
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
//!   ([`CertificateSpec`], computed by [`StabilityCertificate`]):
//!   `⌈wr⌉` for `r ≤ 1/(d+1)` greedy runs, the `1/d` time-priority
//!   variant, and the S-degraded Observation 4.4 bounds.
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
//! The stability theorems are pass/fail certificates, so a violation
//! means the run is wrong: it aborts the run with a typed error
//! carrying a [`ReproBundle`] — seed, step, state snapshot, and fault
//! plan — enough to replay the failure in isolation.
//!
//! Every invariant family is catalogued in the repository-level
//! `INVARIANTS.md` (formal statement, how it is tested, what breaks
//! if it is violated); [`InvariantKind::ALL`] is the exhaustiveness
//! anchor the catalog test checks against, and the `aqt-campaign`
//! crate drives a coverage-directed fuzz campaign over these checks.

use crate::fault::FaultPlan;
use crate::metrics::{BacklogSample, Metrics};
use crate::packet::Time;
use crate::protocol::Protocol;
use crate::ratio::Ratio;
use crate::snapshot::Snapshot;

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

/// The Section 4 stability theorems as one exact bound calculator, for
/// a `(w, r)` adversary against routes of length at most `d`,
/// optionally with an `S`-initial-configuration.
///
/// * **Theorem 4.1** — any greedy protocol, `r ≤ 1/(d+1)`, empty
///   start: no packet stays in one buffer longer than `⌈wr⌉` steps.
/// * **Theorem 4.3** — time-priority protocols (Definition 4.2; FIFO,
///   LIS): the same bound already for `r ≤ 1/d`.
/// * **Observation 4.4 / Corollaries 4.5, 4.6** — with an
///   `S`-initial-configuration and *strict* rate inequality, the bound
///   becomes `⌈w*/k⌉` for `w* = ⌈(S+w+1)/(1/k − r)⌉`, where `1/k` is
///   the class threshold (`1/(d+1)` or `1/d`).
///
/// All arithmetic is exact (integer/rational). The sentinel enforces
/// these bounds through [`CertificateSpec`]; `aqt-core`'s experiments
/// report them (it re-exports this type as
/// `aqt_core::theory::StabilityCertificate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityCertificate {
    /// The adversary's window `w`.
    pub window: u64,
    /// The adversary's rate `r`.
    pub rate: Ratio,
    /// Length of the longest packet route, `d`.
    pub d: usize,
    /// `S` of the initial configuration (0 = empty start).
    pub initial: u64,
}

impl StabilityCertificate {
    /// Certificate for an empty-start system.
    pub fn new(window: u64, rate: Ratio, d: usize) -> Self {
        Self::with_initial(window, rate, d, 0)
    }

    /// Certificate for an `S`-initial-configuration (Observation 4.4).
    pub fn with_initial(window: u64, rate: Ratio, d: usize, initial: u64) -> Self {
        StabilityCertificate {
            window,
            rate,
            d,
            initial,
        }
    }

    /// `⌈(S+w+1)/(1/k − r)⌉`, exact. `None` if `r ≥ 1/k`.
    fn w_star(&self, k: u64) -> Option<u64> {
        let num = self.rate.num();
        let den = self.rate.den();
        // 1/k − num/den = (den − num·k) / (den·k)
        let gap_num = (den as u128).checked_sub(num as u128 * k as u128)?;
        if gap_num == 0 {
            return None;
        }
        let s_w_1 = (self.initial + self.window + 1) as u128;
        // ceil(s_w_1 · den·k / gap_num)
        let prod = s_w_1 * den as u128 * k as u128;
        Some(prod.div_ceil(gap_num) as u64)
    }

    /// The bound against threshold `1/k`: `⌈wr⌉` for an empty start
    /// with `r ≤ 1/k`, `⌈w*/k⌉` for an S-start with `r < 1/k`.
    fn bound_at(&self, k: u64) -> Option<u64> {
        if k == 0 {
            None
        } else if self.initial == 0 {
            self.rate
                .le_frac(1, k)
                .then(|| self.rate.ceil_mul(self.window))
        } else {
            self.w_star(k).map(|w| w.div_ceil(k))
        }
    }

    /// Theorem 4.1 / Corollary 4.5: per-buffer delay bound for **any
    /// greedy protocol**. `None` if the rate is too high for the
    /// theorem to apply (`r > 1/(d+1)`, or `r = 1/(d+1)` with a
    /// nonempty initial configuration).
    pub fn greedy_bound(&self) -> Option<u64> {
        self.bound_at(self.d as u64 + 1)
    }

    /// Theorem 4.3 / Corollary 4.6: per-buffer delay bound for
    /// **time-priority protocols** (FIFO, LIS). `None` if `r > 1/d`
    /// (or `r = 1/d` with a nonempty initial configuration).
    pub fn time_priority_bound(&self) -> Option<u64> {
        self.bound_at(self.d as u64)
    }

    /// The applicable bound for a protocol class: the time-priority
    /// bound when the protocol qualifies and it applies, otherwise the
    /// greedy bound. `None` when no theorem applies at this rate.
    pub fn bound(&self, time_priority: bool) -> Option<u64> {
        if time_priority {
            self.time_priority_bound().or_else(|| self.greedy_bound())
        } else {
            self.greedy_bound()
        }
    }

    /// [`StabilityCertificate::bound`] for `protocol`'s class.
    pub fn bound_for<P: Protocol>(&self, protocol: &P) -> Option<u64> {
        self.bound(protocol.is_time_priority())
    }

    /// The sentinel's [`CertificateSpec`] for this certificate and a
    /// protocol class: `spec.bound()` is `self.bound(time_priority)`.
    pub fn spec(&self, time_priority: bool) -> CertificateSpec {
        CertificateSpec {
            window: self.window,
            rate: self.rate,
            d: self.d as u64,
            initial: self.initial,
            time_priority,
        }
    }

    /// Observation 4.4's recovery horizon
    /// `w* = ⌈(S+w+1)/(r* − r)⌉`, with `r*` the stability threshold of
    /// the protocol class (`1/d` for time-priority protocols, `1/(d+1)`
    /// for greedy ones). It is the window length after which an
    /// `S`-perturbed system again obeys the empty-start behavior — the
    /// number the fault-recovery experiment (E14) compares measured
    /// re-settling delays against. `None` when the rate is not strictly
    /// below the class threshold (the observation needs `r < r*`).
    pub fn recovery_horizon(&self, time_priority: bool) -> Option<u64> {
        if time_priority && self.d > 0 {
            self.w_star(self.d as u64)
                .or_else(|| self.w_star(self.d as u64 + 1))
        } else {
            self.w_star(self.d as u64 + 1)
        }
    }
}

/// A theorem-derived per-buffer wait bound, enforceable online: the
/// [`StabilityCertificate`] parameters plus the protocol-class flag
/// the theorems dispatch on. Plain public fields, because the
/// campaign emits specs as regression-test source.
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
    /// The enforceable per-buffer wait bound
    /// ([`StabilityCertificate::bound`]), or `None` when no theorem
    /// applies at this rate.
    pub fn bound(&self) -> Option<u64> {
        StabilityCertificate::with_initial(self.window, self.rate, self.d as usize, self.initial)
            .bound(self.time_priority)
    }
}

/// The snapshot round-trip check (allocates a full state capture) runs
/// every `cadence × ROUNDTRIP_STRIDE` steps.
const ROUNDTRIP_STRIDE: u64 = 512;

/// Sentinel configuration: check cadence, the bound to enforce and the
/// seed to stamp on repro bundles.
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
    /// The theorem bound to enforce, if one applies to this run.
    pub certificate_spec: Option<CertificateSpec>,
    /// The run's RNG seed (free-form), stamped into repro bundles.
    pub seed: Option<u64>,
}

impl Default for SentinelConfig {
    /// Every invariant checked, cadence 1024 with the
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
            certificate_spec: None,
            seed: None,
        }
    }
}

impl SentinelConfig {
    /// Equal to [`SentinelConfig::default`]: every invariant checked,
    /// each violation halting the run.
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

/// The minimal reproduction bundle attached to every violation: everything needed to reconstruct the failing state in a
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
/// resumed run keeps its check phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelState {
    /// Time of the last completed check (baseline for the unit-speed
    /// interval).
    pub(crate) last_check: Time,
    /// Per-edge crossing counters at the last check.
    pub(crate) crossings_at_last_check: Vec<u64>,
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
                checks_run: 0,
            },
        }
    }

    /// The configuration the sentinel was attached with.
    pub fn config(&self) -> &SentinelConfig {
        &self.cfg
    }

    /// Number of completed check rounds.
    pub fn checks_run(&self) -> u64 {
        self.state.checks_run
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
