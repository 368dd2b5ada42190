//! `campaign`: `run_campaign` over 20,000 scenarios at the workload
//! seed, default configuration.
//!
//! Set-up dominated: each scenario builds a small topology, an engine,
//! an all-halt sentinel and counter telemetry, then steps for at most
//! ~100 steps, so construction and probe-attach costs show and
//! stepping barely does. About 3% of the scenarios are sharded: they
//! start the engine's own shard workers and are re-run sequentially
//! as a cross-check, and they take most of the time.
//!
//! The campaign loop is also rebuilt here from `generate`, `mutate`,
//! `Corpus`, `features_of`, `CoverageMap` and `run_scenario` (the
//! replica). It runs as the warm-up, where it counts the simulated
//! steps `run_campaign` does not report, and as the traced pass, where
//! it times each call. Every measured `run_campaign` must match the
//! replica's counts exactly. Because set-up happens inside each
//! scenario, `setup_s` times constructing the campaign's first 200
//! scenarios on their own — engine, sentinel, telemetry — without
//! stepping them.

use std::time::Instant;

use aqt_campaign::{
    features_of, generate, mutate, protocol_index, run_campaign, run_scenario, CampaignConfig,
    CampaignReport, Corpus, CoverageMap, Outcome, Scenario,
};
use aqt_protocols::by_name;
use aqt_sim::{
    AdversaryModelSpec, Engine, EngineConfig, SentinelConfig, TelemetryConfig, TelemetryLevel,
};
use aqt_workload::ClosedLoop;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{set_up, timed, Check, Rep, Scale, Traced, Workload};
use crate::stats::tail_percentile;
use crate::trace::Tracer;

/// The counts a campaign run is judged by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Scenarios run.
    pub runs: u64,
    /// Clean runs.
    pub clean: u64,
    /// Runs that broke their own adversary model.
    pub overrate: u64,
    /// Unbuildable scenarios.
    pub invalid: u64,
    /// Invariant breaches, duplicates included.
    pub breaches: u64,
    /// Final corpus size.
    pub corpus: usize,
    /// Distinct coverage features.
    pub features: usize,
    /// Coverage hits.
    pub hits: u64,
}

impl Counts {
    /// The counts of a finished `run_campaign`.
    pub fn of_report(r: &CampaignReport) -> Counts {
        Counts {
            runs: r.runs,
            clean: r.clean,
            overrate: r.overrate,
            invalid: r.invalid,
            breaches: r.total_breaches(),
            corpus: r.corpus_size,
            features: r.coverage.distinct(),
            hits: r.coverage.total_hits(),
        }
    }

    /// Operations that did not run clean.
    pub fn failed(&self) -> u64 {
        self.overrate + self.invalid + self.breaches
    }
}

/// What the replica loop observed.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The same counts `run_campaign` reports.
    pub counts: Counts,
    /// Simulated steps over all scenarios.
    pub steps: u64,
    /// Runs whose coverage was novel.
    pub novel_runs: u64,
    /// The first scenarios drawn, kept for the set-up probe.
    pub sample: Vec<Scenario>,
}

/// `run_campaign`'s loop, call for call, minus breach shrinking (which
/// touches neither the draw nor the counts). With a tracer each call
/// gets a span.
pub fn replica(cfg: &CampaignConfig, keep: usize, mut tracer: Option<&mut Tracer>) -> Replica {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut coverage = CoverageMap::new();
    let mut corpus = Corpus::new();
    let mut counts = Counts::default();
    let (mut steps, mut novel_runs) = (0, 0);
    let mut sample = Vec::with_capacity(keep);
    // One span per call, or a plain call without a tracer.
    macro_rules! call {
        ($name:literal, $e:expr) => {
            match tracer.as_deref_mut() {
                Some(t) => t.span($name, |_| $e),
                None => $e,
            }
        };
    }
    while counts.runs < cfg.max_runs {
        let scenario = call!("campaign.draw", {
            if !corpus.is_empty() && rng.gen_bool(cfg.mutate_bias) {
                let base = corpus
                    .choose(&mut rng)
                    .expect("corpus checked nonempty")
                    .clone();
                mutate(&mut rng, &cfg.generator, &base)
            } else {
                let target = if rng.gen_bool(cfg.steer_bias) {
                    coverage.rarest()
                } else {
                    None
                };
                generate(&mut rng, &cfg.generator, target)
            }
        });
        counts.runs += 1;
        let outcome = call!("campaign.run", run_scenario(&scenario));
        if let Some(stats) = outcome.stats() {
            steps += stats.steps;
            call!("campaign.coverage", {
                let pidx = protocol_index(&scenario.protocol).unwrap_or(u8::MAX);
                if coverage.record(&features_of(&scenario, pidx, stats)) > 0 {
                    novel_runs += 1;
                    corpus.add(scenario.clone());
                }
            });
        }
        match outcome {
            Outcome::Clean(_) => counts.clean += 1,
            Outcome::Overrate(..) => counts.overrate += 1,
            Outcome::Invalid(_) => counts.invalid += 1,
            Outcome::Breach(..) => counts.breaches += 1,
        }
        if sample.len() < keep {
            sample.push(scenario);
        }
    }
    counts.corpus = corpus.len();
    counts.features = coverage.distinct();
    counts.hits = coverage.total_hits();
    Replica {
        counts,
        steps,
        novel_runs,
        sample,
    }
}

/// Construct `s` the way `run_scenario` does — graph, schedule, engine
/// (or closed loop), all-halt sentinel, counter telemetry, faults —
/// without stepping it. Sharded scenarios are built sequential.
fn construct(s: &Scenario) -> Result<(), String> {
    let sentinel = {
        let mut c = SentinelConfig::all_halt()
            .with_cadence(s.cadence)
            .with_seed(s.seed);
        c.deep_stride = s.deep_stride.max(1);
        c.certificate_spec = s.certificate;
        c
    };
    let telemetry = TelemetryConfig {
        level: TelemetryLevel::Counters,
        window: 0,
        ..TelemetryConfig::default()
    };
    let validate = (!s.model.is_empty()).then(|| AdversaryModelSpec::new(s.model.clone()));
    if let Some(spec) = &s.closed_loop {
        let mut cfg = spec.lower(s.seed);
        cfg.validate = validate;
        let mut cl = ClosedLoop::on_line(cfg);
        cl.engine_mut().attach_sentinel(sentinel);
        cl.engine_mut().attach_telemetry(telemetry);
        std::hint::black_box(&cl);
    } else {
        let built = s.build()?;
        let protocol = by_name(&s.protocol, s.seed).ok_or("unknown protocol")?;
        let mut eng = Engine::new(
            built.graph,
            protocol,
            EngineConfig {
                validate,
                sample_every: 32,
                ..EngineConfig::default()
            },
        );
        eng.attach_sentinel(sentinel);
        eng.attach_telemetry(telemetry);
        if !built.faults.is_empty() {
            eng.install_faults(built.faults)
                .map_err(|e| e.to_string())?;
        }
        std::hint::black_box(&eng);
    }
    Ok(())
}

/// The `campaign` workload.
pub struct Campaign {
    cfg: CampaignConfig,
    /// Scenarios the set-up probe constructs.
    keep: usize,
    replica: Option<Replica>,
    /// Counts of the latest measured `run_campaign`.
    reference: Option<Counts>,
}

impl Campaign {
    /// The workload at `seed` and `scale`.
    pub fn new(seed: u64, scale: Scale) -> Campaign {
        let (max_runs, keep) = match scale {
            Scale::Full => (20_000, 200),
            Scale::Tiny => (200, 50),
        };
        Campaign {
            cfg: CampaignConfig {
                seed,
                max_runs,
                ..CampaignConfig::default()
            },
            keep,
            replica: None,
            reference: None,
        }
    }

    fn replica(&mut self) -> &Replica {
        let (cfg, keep) = (&self.cfg, self.keep);
        self.replica.get_or_insert_with(|| replica(cfg, keep, None))
    }

    fn checks(counts: &Counts, replica: &Counts) -> Vec<Check> {
        vec![
            Check::new(
                "campaign.clean",
                counts.failed() == 0,
                format!(
                    "{} runs: {} clean, {} overrate, {} invalid, {} breaches",
                    counts.runs, counts.clean, counts.overrate, counts.invalid, counts.breaches
                ),
            ),
            Check::new(
                "campaign.replica_matches",
                counts == replica,
                format!("run_campaign {counts:?} vs replica {replica:?}"),
            ),
        ]
    }
}

impl Workload for Campaign {
    fn warm_up(&mut self) -> Result<Rep, String> {
        let t0 = Instant::now();
        let r = self.replica();
        let run_s = t0.elapsed().as_secs_f64();
        Ok(Rep {
            wall_s: run_s,
            setup_s: 0.0,
            run_s,
            steps: r.steps,
            ops: r.counts.runs,
            failed: r.counts.failed(),
            checks: Vec::new(),
        })
    }

    fn rep(&mut self) -> Result<Rep, String> {
        self.replica();
        let r = self.replica.as_ref().expect("replica just ran");
        let ((), setup_s) = set_up(|| r.sample.iter().try_for_each(construct))?;
        let (report, run_s) = timed(|| run_campaign(&self.cfg, &mut Corpus::new()));
        let counts = Counts::of_report(&report);
        let rep = Rep {
            wall_s: run_s,
            setup_s,
            run_s,
            steps: r.steps,
            ops: counts.runs,
            failed: counts.failed(),
            checks: Campaign::checks(&counts, &r.counts),
        };
        self.reference = Some(counts);
        Ok(rep)
    }

    fn traced(&mut self, tracer: &mut Tracer) -> Result<Traced, String> {
        let reference = match self.reference {
            Some(c) => c,
            None => tracer.span("campaign.run_campaign", |_| {
                Counts::of_report(&run_campaign(&self.cfg, &mut Corpus::new()))
            }),
        };
        let r = tracer.span("campaign.replica", |t| replica(&self.cfg, 0, Some(t)));
        let wall_s = tracer.total_ns("campaign.replica") as f64 / 1e9;
        let runs = r.counts.runs.max(1) as f64;
        let mean_us = |name| tracer.total_ns(name) as f64 / 1e3 / runs;
        let run_us: Vec<f64> = tracer
            .durations_ns("campaign.run")
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        let p99 = tail_percentile(&run_us, 99.0)
            .unwrap_or_else(|| run_us.iter().copied().fold(0.0, f64::max));
        Ok(Traced {
            layers: vec![
                ("campaign.generate_us", mean_us("campaign.draw")),
                ("campaign.coverage_us", mean_us("campaign.coverage")),
                ("campaign.run_us", mean_us("campaign.run")),
                ("campaign.run_p99_us", p99),
                ("campaign.steps_per_run", r.steps as f64 / runs),
                ("campaign.novel_share", r.novel_runs as f64 / runs),
            ],
            wall_s,
            notes: vec![format!(
                "{} runs, {} steps, corpus {}, {} features",
                r.counts.runs, r.steps, r.counts.corpus, r.counts.features
            )],
            checks: Campaign::checks(&reference, &r.counts),
        })
    }
}
