//! The campaign corpus: deduplicated scenarios worth mutating.
//!
//! A scenario earns a corpus slot by exhibiting novel coverage (see
//! [`crate::coverage::CoverageMap`]). Deduplication is by
//! [`Scenario::fingerprint`], so re-generating an identical scenario —
//! common under mutation — costs nothing. The corpus can also be
//! seeded from a sweep's quarantine output: every
//! [`aqt_sim::ReproBundle`] a [`aqt_sim::SweepReport`] carries is
//! grafted onto a template scenario (its seed and fault plan replace
//! the template's), which turns yesterday's production failures into
//! today's fuzz starting points.

use std::collections::BTreeSet;

use aqt_sim::{ReproBundle, SweepReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::scenario::{CohortSpec, FaultSpec, Scenario};

/// Deduplicated scenario store.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: Vec<Scenario>,
    seen: BTreeSet<u64>,
}

impl Corpus {
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Add `scenario` unless an identical one (by fingerprint) is
    /// already present. Returns whether it was added.
    pub fn add(&mut self, scenario: Scenario) -> bool {
        if self.seen.insert(scenario.fingerprint()) {
            self.entries.push(scenario);
            true
        } else {
            false
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored scenarios, in insertion order.
    pub fn entries(&self) -> &[Scenario] {
        &self.entries
    }

    /// A uniformly random entry.
    pub fn choose(&self, rng: &mut StdRng) -> Option<&Scenario> {
        self.entries.as_slice().choose(rng)
    }

    /// Graft one repro bundle onto `template`: the bundle's seed and
    /// fault plan replace the template's own. The snapshot itself is
    /// not replayed — what the corpus wants is the *neighborhood* of
    /// the failure (same faults, same randomness), reached through the
    /// template's schedule, so mutation can explore around it.
    pub fn scenario_from_bundle(template: &Scenario, bundle: &ReproBundle) -> Scenario {
        let mut s = template.clone();
        if let Some(seed) = bundle.seed {
            s.seed = seed;
        }
        if let Some(plan) = &bundle.fault_plan {
            let mut faults = Vec::new();
            for o in plan.outages() {
                faults.push(FaultSpec::Outage {
                    edge: o.edge.0,
                    from: o.from,
                    until: o.until,
                });
            }
            for &(edge, time) in plan.drops() {
                faults.push(FaultSpec::Drop { edge: edge.0, time });
            }
            for &(edge, time) in plan.duplicates() {
                faults.push(FaultSpec::Duplicate { edge: edge.0, time });
            }
            for b in plan.bursts() {
                faults.push(FaultSpec::Burst {
                    time: b.time,
                    cohorts: b
                        .injections
                        .iter()
                        .map(|inj| CohortSpec {
                            route: inj.route.edges().iter().map(|e| e.0).collect(),
                            tag: inj.tag,
                            count: inj.count,
                        })
                        .collect(),
                });
            }
            s.faults = faults;
            s.horizon = s
                .horizon
                .max(s.faults.iter().map(FaultSpec::horizon).max().unwrap_or(0));
        }
        s
    }

    /// Seed the corpus from a sweep's quarantined failures. Returns how
    /// many scenarios were added (grafts deduplicate like any other
    /// entry).
    pub fn seed_from_sweep<R>(&mut self, report: &SweepReport<R>, template: &Scenario) -> usize {
        let mut added = 0;
        for (_, bundle) in report.bundles() {
            if self.add(Self::scenario_from_bundle(template, bundle)) {
                added += 1;
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{InjectSpec, TopologySpec};
    use aqt_graph::{topologies, EdgeId, Route};
    use aqt_sim::{FaultPlan, Injection, Snapshot, SNAPSHOT_SCHEMA_VERSION};

    fn template() -> Scenario {
        Scenario {
            topology: TopologySpec::Line(2),
            protocol: "FIFO".into(),
            seed: 1,
            horizon: 24,
            cadence: 1,
            deep_stride: 1,
            injections: vec![InjectSpec {
                time: 1,
                cohort: CohortSpec {
                    route: vec![0, 1],
                    tag: 0,
                    count: 2,
                },
            }],
            faults: vec![],
            model: vec![],
            certificate: None,
            closed_loop: None,
        }
    }

    fn empty_snapshot() -> Snapshot {
        Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            time: 5,
            next_id: 0,
            injected: 0,
            absorbed: 0,
            dropped: 0,
            duplicated: 0,
            routes: vec![],
            buffers: vec![vec![], vec![]],
        }
    }

    #[test]
    fn add_dedups_by_fingerprint() {
        let mut c = Corpus::new();
        assert!(c.add(template()));
        assert!(!c.add(template()));
        let mut other = template();
        other.seed = 2;
        assert!(c.add(other));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn bundle_graft_carries_seed_and_faults() {
        let g = topologies::line(2);
        let route = Route::new(&g, vec![EdgeId(0), EdgeId(1)]).unwrap();
        let plan = FaultPlan::new()
            .with_outage(EdgeId(0), 2, 4)
            .with_drop(EdgeId(1), 3)
            .with_burst(30, vec![Injection::cohort(route, 9, 3)]);
        let bundle = ReproBundle {
            seed: Some(77),
            step: 5,
            snapshot: empty_snapshot(),
            fault_plan: Some(plan),
            backlog: vec![],
        };
        let s = Corpus::scenario_from_bundle(&template(), &bundle);
        assert_eq!(s.seed, 77);
        assert_eq!(s.faults.len(), 3);
        assert!(matches!(
            s.faults[0],
            FaultSpec::Outage {
                edge: 0,
                from: 2,
                until: 4
            }
        ));
        assert!(matches!(s.faults[1], FaultSpec::Drop { edge: 1, time: 3 }));
        let FaultSpec::Burst { time, cohorts } = &s.faults[2] else {
            panic!("expected burst");
        };
        assert_eq!(*time, 30);
        assert_eq!(cohorts[0].route, vec![0, 1]);
        assert_eq!(cohorts[0].count, 3);
        // The burst at 30 is past the template horizon (24): graft must
        // stretch the horizon so the scenario still builds.
        assert!(s.horizon >= 30);
        s.build().expect("grafted scenario must be buildable");
    }

    #[test]
    fn bundle_without_plan_keeps_template_faults() {
        let bundle = ReproBundle {
            seed: None,
            step: 1,
            snapshot: empty_snapshot(),
            fault_plan: None,
            backlog: vec![],
        };
        let s = Corpus::scenario_from_bundle(&template(), &bundle);
        assert_eq!(s.seed, template().seed);
        assert!(s.faults.is_empty());
    }
}
