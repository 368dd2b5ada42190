//! Deterministic breach minimization.
//!
//! Given a scenario whose run breaches an invariant, the shrinker
//! searches for a strictly smaller scenario (by
//! [`Scenario::weight`]) that still breaches the *same*
//! [`InvariantKind`], by re-running candidate reductions: truncate the
//! horizon to the breach step, drop whole injections and fault
//! entries, halve and decrement cohort counts, truncate routes, and
//! swap in smaller topologies. A candidate is accepted only if its
//! fresh run breaches identically — the shrinker never reasons about
//! the engine, it only re-executes, so an accepted reduction is a
//! verified repro by construction. The pass order and tie-breaks are
//! fixed, so shrinking the same scenario always yields the same
//! minimum (ddmin-style greedy descent, restarted after every
//! acceptance).

use aqt_sim::{InvariantKind, Time, ViolationReport};

use crate::run::{run_scenario, Outcome};
use crate::scenario::{FaultSpec, Scenario};

/// Upper bound on candidate re-runs per shrink, so a pathological
/// scenario cannot stall a campaign. Greedy descent on the small
/// scenarios the generator produces converges in far fewer.
const MAX_ATTEMPTS: u64 = 512;

/// The result of minimizing one breach.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The smallest scenario found (== the input when nothing smaller
    /// still breached).
    pub scenario: Scenario,
    /// The report of the smallest scenario's breach (re-verified by
    /// an actual run).
    pub report: Box<ViolationReport>,
    /// Candidate runs executed.
    pub attempts: u64,
    /// Reductions accepted.
    pub accepted: u64,
}

/// Truncate `s` to end at `horizon`: drop events past it, clamp
/// outages into it. `None` when nothing changes.
fn truncated(s: &Scenario, horizon: Time) -> Option<Scenario> {
    if horizon >= s.horizon {
        return None;
    }
    let mut t = s.clone();
    t.horizon = horizon;
    t.injections.retain(|i| i.time <= horizon);
    t.faults.retain_mut(|f| match f {
        FaultSpec::Outage { from, until, .. } => {
            *until = (*until).min(horizon);
            *from <= horizon
        }
        FaultSpec::Drop { time, .. }
        | FaultSpec::Duplicate { time, .. }
        | FaultSpec::Burst { time, .. } => *time <= horizon,
    });
    Some(t)
}

/// The candidate reductions of `s`, smallest-change-last so the big
/// cuts (horizon, whole injections, whole faults) are tried first.
fn candidates(s: &Scenario, breach_time: Time) -> Vec<Scenario> {
    let mut out = Vec::new();
    // 1. End the run right where the breach was observed.
    out.extend(truncated(s, breach_time));
    // 2. Drop one injection at a time.
    for i in 0..s.injections.len() {
        let mut t = s.clone();
        t.injections.remove(i);
        out.push(t);
    }
    // 3. Drop one fault entry at a time.
    for i in 0..s.faults.len() {
        let mut t = s.clone();
        t.faults.remove(i);
        out.push(t);
    }
    // 4. Halve, then decrement, cohort counts.
    for i in 0..s.injections.len() {
        if s.injections[i].cohort.count > 1 {
            let mut t = s.clone();
            t.injections[i].cohort.count /= 2;
            out.push(t);
            let mut t = s.clone();
            t.injections[i].cohort.count -= 1;
            out.push(t);
        }
    }
    // 5. Truncate routes: first half, then all-but-last-edge.
    for i in 0..s.injections.len() {
        let len = s.injections[i].cohort.route.len();
        if len > 1 {
            let mut t = s.clone();
            t.injections[i].cohort.route.truncate(len.div_ceil(2));
            out.push(t);
            let mut t = s.clone();
            t.injections[i].cohort.route.truncate(len - 1);
            out.push(t);
        }
    }
    // 6. Drop one adversary-model member at a time: validation can
    //    only reject schedules, so a breach that survived under the
    //    model also breaches without it — the member is chaff unless
    //    the breach *is* the validator (Overrate never reaches here).
    for i in 0..s.model.len() {
        let mut t = s.clone();
        t.model.remove(i);
        out.push(t);
    }
    // 7. Shrink the closed-loop workload: fewer clients, fewer
    //    attempts, a smaller queue, no outage, a shorter path (the
    //    topology follows the path so the lowered config stays
    //    consistent). Dropping the workload entirely is also offered —
    //    it never survives re-run unless the breach was independent of
    //    the loop.
    if let Some(spec) = &s.closed_loop {
        for cand in spec.shrink_candidates() {
            let mut t = s.clone();
            t.topology = crate::scenario::TopologySpec::Line(cand.path_len.max(1));
            t.closed_loop = Some(cand);
            out.push(t);
        }
        let mut t = s.clone();
        t.closed_loop = None;
        out.push(t);
    }
    // 8. Smaller topologies (open-loop: routes that no longer fit
    //    simply fail to build and the candidate is rejected by its
    //    run).
    if s.closed_loop.is_none() {
        for topo in s.topology.shrink_candidates() {
            let mut t = s.clone();
            t.topology = topo;
            out.push(t);
        }
    }
    out
}

/// Minimize `scenario`, whose run is known to breach `kind`.
///
/// The returned [`ShrinkOutcome::scenario`] breaches `kind` when
/// re-run (its report is included), and its weight is ≤ the input's —
/// strictly smaller whenever any reduction was accepted.
pub fn shrink(scenario: &Scenario, kind: InvariantKind) -> ShrinkOutcome {
    let mut attempts = 0u64;
    let mut accepted = 0u64;
    // Re-verify the input: its own report is the baseline.
    let mut best_report = match run_scenario(scenario) {
        Outcome::Breach(r, _) if r.violation.kind == kind => r,
        other => panic!("shrink() given a scenario that does not breach {kind:?}: {other:?}"),
    };
    let mut best = scenario.clone();
    'descent: loop {
        let breach_time = best_report.violation.time;
        for cand in candidates(&best, breach_time) {
            if cand.weight() >= best.weight() {
                continue;
            }
            if attempts >= MAX_ATTEMPTS {
                break 'descent;
            }
            attempts += 1;
            if let Outcome::Breach(r, _) = run_scenario(&cand) {
                if r.violation.kind == kind {
                    best = cand;
                    best_report = r;
                    accepted += 1;
                    continue 'descent;
                }
            }
        }
        break;
    }
    ShrinkOutcome {
        scenario: best,
        report: best_report,
        attempts,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CohortSpec, InjectSpec, TopologySpec};
    use aqt_sim::sentinel::CertificateSpec;
    use aqt_sim::Ratio;

    /// A deliberately bloated breaching scenario: the tight certificate
    /// (bound 1) is tripped by the big cohort alone; everything else is
    /// chaff the shrinker should strip.
    fn bloated() -> Scenario {
        Scenario {
            topology: TopologySpec::Line(4),
            protocol: "FIFO".into(),
            seed: 3,
            horizon: 80,
            cadence: 1,
            deep_stride: 1,
            injections: vec![
                InjectSpec {
                    time: 1,
                    cohort: CohortSpec {
                        route: vec![0, 1, 2, 3],
                        tag: 0,
                        count: 8,
                    },
                },
                InjectSpec {
                    time: 20,
                    cohort: CohortSpec {
                        route: vec![2, 3],
                        tag: 1,
                        count: 2,
                    },
                },
            ],
            faults: vec![FaultSpec::Drop { edge: 3, time: 40 }],
            model: vec![aqt_sim::ConstraintSpec::BufferBound { bound: 7 }],
            certificate: Some(CertificateSpec {
                window: 1,
                rate: Ratio::new(1, 5),
                d: 4,
                initial: 0,
                time_priority: false,
            }),
            closed_loop: None,
        }
    }

    #[test]
    fn shrink_strips_chaff_and_stays_breaching() {
        let original = bloated();
        let Outcome::Breach(report, _) = run_scenario(&original) else {
            panic!("bloated scenario must breach");
        };
        let kind = report.violation.kind;
        let out = shrink(&original, kind);
        assert!(out.accepted > 0, "nothing was shrunk");
        assert!(
            out.scenario.weight() < original.weight(),
            "shrunk {} !< original {}",
            out.scenario.weight(),
            original.weight()
        );
        assert_eq!(out.report.violation.kind, kind);
        // The chaff is gone: the late injection, the fault, the
        // satisfied model member, and the post-breach horizon slack.
        assert_eq!(out.scenario.injections.len(), 1);
        assert!(out.scenario.faults.is_empty());
        assert!(out.scenario.model.is_empty());
        assert!(out.scenario.horizon <= report.violation.time);
        // Re-running the shrunk scenario reproduces the breach — the
        // emitted regression test will hold.
        let Outcome::Breach(again, _) = run_scenario(&out.scenario) else {
            panic!("shrunk scenario no longer breaches");
        };
        assert_eq!(again.violation, out.report.violation);
    }

    #[test]
    fn shrink_is_deterministic() {
        let original = bloated();
        let a = shrink(&original, InvariantKind::Certificate);
        let b = shrink(&original, InvariantKind::Certificate);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.report.violation, b.report.violation);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    #[should_panic(expected = "does not breach")]
    fn shrink_rejects_clean_scenarios() {
        let mut s = bloated();
        s.certificate = None;
        shrink(&s, InvariantKind::Certificate);
    }
}
