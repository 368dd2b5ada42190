//! End-to-end tests of the campaign subsystem: the INVARIANTS.md
//! catalog's exhaustiveness, ReproBundle round-trip fidelity at every
//! severity, the find → shrink → regression-emit pipeline, and corpus
//! seeding from sweep quarantine output.

use std::sync::Arc;

use aqt_campaign::{
    run_campaign, run_scenario, CampaignConfig, CohortSpec, Corpus, Feature, InjectSpec, Outcome,
    Scenario, TopologySpec,
};
use aqt_graph::{topologies, EdgeId, Route};
use aqt_protocols::Fifo;
use aqt_sim::sentinel::{CertificateSpec, SentinelConfig};
use aqt_sim::{
    run_sim_sweep, snapshot, Engine, EngineConfig, EngineError, FaultPlan, Injection,
    InvariantKind, Ratio, Severity, SimError, ViolationReport,
};

// ---------------------------------------------------------------------
// INVARIANTS.md catalog exhaustiveness
// ---------------------------------------------------------------------

const CATALOG: &str = include_str!("../INVARIANTS.md");

/// Every sentinel invariant family has a catalog entry, and every
/// catalog entry names a real family — the file cannot drift from
/// `InvariantKind`. Every entry, and every bullet under "Invariants
/// enforced outside the sentinel", names at least one test.
#[test]
fn invariants_catalog_is_exhaustive() {
    for kind in InvariantKind::ALL {
        let heading = format!("### `{}`", kind.name());
        assert!(
            CATALOG.contains(&heading),
            "INVARIANTS.md has no entry '{heading}' for {kind:?}"
        );
    }
    // No orphan entries: every `### `…`` heading in the sentinel
    // section must be one of the variants.
    let names: Vec<&str> = InvariantKind::ALL.iter().map(|k| k.name()).collect();
    for line in CATALOG.lines() {
        if let Some(rest) = line.strip_prefix("### `") {
            let Some(name) = rest.split('`').next() else {
                continue;
            };
            assert!(
                names.contains(&name),
                "INVARIANTS.md entry '{name}' names no InvariantKind variant"
            );
        }
    }
    // Each entry documents all four catalog facets.
    for facet in [
        "**Formal statement.**",
        "**How to test.**",
        "**What breaks if violated.**",
        "**Default severity.**",
    ] {
        let count = CATALOG.matches(facet).count();
        assert!(
            count >= InvariantKind::ALL.len(),
            "facet '{facet}' appears {count} times, expected one per invariant"
        );
    }
    let (sentinel, outside) = CATALOG
        .split_once("\n## Invariants enforced outside the sentinel")
        .expect("INVARIANTS.md has the outside-the-sentinel section");
    let outside = outside.split("\n## ").next().unwrap_or_default();
    let entries = sentinel.split("\n### ").skip(1);
    let bullets = outside.split("\n- ").skip(1);
    for item in entries.chain(bullets) {
        assert!(
            item.split('`').skip(1).step_by(2).any(names_a_test),
            "INVARIANTS.md: '{}' names no test as `path.rs::fn_name`",
            item.lines().next().unwrap_or_default()
        );
    }
}

/// Is `token` a `path.rs::fn_name` whose `fn` carries `#[test]`?
fn names_a_test(token: &str) -> bool {
    let Some((stem, name)) = token.split_once(".rs::") else {
        return false;
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let Ok(src) = std::fs::read_to_string(root.join(format!("{stem}.rs"))) else {
        return false;
    };
    let lines: Vec<&str> = src.lines().map(str::trim).collect();
    let head = format!("fn {name}(");
    lines.iter().enumerate().any(|(i, line)| {
        line.starts_with(&head)
            && lines[..i]
                .iter()
                .rev()
                .take_while(|l| l.starts_with("#["))
                .any(|l| *l == "#[test]")
    })
}

/// Every repository path the prose docs cite in backticks exists: a
/// token ending in `.rs` (optionally `path.rs::name`, which must also
/// define `fn name`) or starting with `crates/`, `tests/` or
/// `examples/` is resolved against the repository root. Fenced code
/// blocks are skipped for paths; there, and in backticked prose, every
/// `cargo` command's `--example`, `--test`, `--bench` and `-p` target
/// must exist in the workspace.
#[test]
fn doc_path_references_resolve() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dangling = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", "INVARIANTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                if let Some(target) = missing_cargo_target(root, line) {
                    dangling.push(format!("{doc}:{}: {target} in `{}`", n + 1, line.trim()));
                }
                continue;
            }
            for token in line.split('`').skip(1).step_by(2) {
                if let Some(target) = missing_cargo_target(root, token) {
                    dangling.push(format!("{doc}:{}: {target} in `{token}`", n + 1));
                }
                let (path, name) = match token.split_once(".rs::") {
                    Some((stem, name)) => (format!("{stem}.rs"), Some(name)),
                    None => (token.to_string(), None),
                };
                let cited = path.ends_with(".rs")
                    || ["crates/", "tests/", "examples/"]
                        .iter()
                        .any(|p| path.starts_with(p));
                if !cited {
                    continue;
                }
                let ok = match std::fs::read_to_string(root.join(&path)) {
                    Ok(src) => name.is_none_or(|f| src.contains(&format!("fn {f}"))),
                    Err(_) => name.is_none() && root.join(&path).exists(),
                };
                if !ok {
                    dangling.push(format!("{doc}:{}: `{token}`", n + 1));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "dangling doc references:\n{}",
        dangling.join("\n")
    );
}

/// The first `--example`/`--test`/`--bench`/`-p` target of a `cargo`
/// command in `line` that no workspace package has (arguments after
/// `--`, a comment or a pipe are not cargo's; `<placeholders>` are
/// skipped).
fn missing_cargo_target(root: &std::path::Path, line: &str) -> Option<String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let start = words.iter().position(|w| *w == "cargo")? + 1;
    let packages: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ readable")
        .map(|e| e.expect("crates/ entry").path())
        .chain(std::iter::once(root.to_path_buf()))
        .collect();
    let has_file = |dir: &str, name: &str| {
        packages
            .iter()
            .any(|p| p.join(dir).join(format!("{name}.rs")).exists())
    };
    let args = words[start..]
        .iter()
        .take_while(|w| !["--", "#", "|", "&&", ";"].contains(w));
    let pairs = args.clone().zip(args.skip(1));
    for (flag, value) in pairs.filter(|(_, v)| !v.starts_with('<')) {
        let found = match *flag {
            "--example" => has_file("examples", value),
            "--test" => has_file("tests", value),
            "--bench" => has_file("benches", value),
            "-p" | "--package" => packages.iter().any(|p| {
                std::fs::read_to_string(p.join("Cargo.toml"))
                    .is_ok_and(|m| m.contains(&format!("\nname = \"{value}\"\n")))
            }),
            _ => true,
        };
        if !found {
            return Some(format!("{flag} {value}"));
        }
    }
    None
}

// ---------------------------------------------------------------------
// ReproBundle round-trip fidelity (Halt / Quarantine / Log)
// ---------------------------------------------------------------------

/// A run that provably breaches the certificate: bound ⌈w·r⌉ = 1 on a
/// line(2), then a 4-packet cohort whose tail waits 3 steps. A drop
/// fault rides along so the bundle carries a fault plan.
fn breaching_engine(severity: Severity) -> (Engine<Fifo>, Route, FaultPlan) {
    let g = Arc::new(topologies::line(2));
    let route = Route::new(&g, vec![EdgeId(0), EdgeId(1)]).unwrap();
    let plan = FaultPlan::new().with_drop(EdgeId(1), 6);
    let mut eng = Engine::new(g, Fifo, EngineConfig::default());
    let mut cfg = SentinelConfig::all_halt()
        .with_severity(severity)
        .with_seed(0xBEEF)
        .with_certificate(CertificateSpec {
            window: 1,
            rate: Ratio::new(1, 3),
            d: 2,
            initial: 0,
            time_priority: false,
        });
    cfg.cadence = 1;
    cfg.deep_stride = 1;
    eng.attach_sentinel(cfg);
    eng.install_faults(plan.clone()).unwrap();
    (eng, route, plan)
}

fn drive_to_breach(severity: Severity) -> (Option<Box<ViolationReport>>, Engine<Fifo>) {
    let (mut eng, route, _) = breaching_engine(severity);
    for t in 0..12u64 {
        let inj = if t == 0 {
            vec![Injection::cohort(route.clone(), 0, 4)]
        } else {
            vec![]
        };
        match eng.step(inj) {
            Ok(()) => {}
            Err(EngineError::Invariant(report)) => return (Some(report), eng),
            Err(e) => panic!("unexpected engine error: {e}"),
        }
    }
    (None, eng)
}

#[test]
fn halt_bundle_replays_to_the_same_breach() {
    let (report, _) = drive_to_breach(Severity::Halt);
    let report = report.expect("halting breach");
    assert_eq!(report.violation.kind, InvariantKind::Certificate);
    assert_eq!(report.bundle.step, report.violation.time);
    assert_eq!(report.bundle.seed, Some(0xBEEF));
    assert!(report.bundle.fault_plan.is_some(), "plan travels in bundle");

    // Fidelity 1: a from-scratch rerun of the same run reproduces the
    // identical violation and the identical bundle.
    let (again, _) = drive_to_breach(Severity::Halt);
    let again = again.expect("deterministic breach");
    assert_eq!(again.violation, report.violation);
    assert_eq!(again.bundle, report.bundle);

    // Fidelity 2: the bundle alone reconstructs a breaching state.
    // Order matters: install the fault plan first (only legal at
    // time 0), then restore the snapshot (which moves the clock).
    let g = Arc::new(topologies::line(2));
    let mut fresh = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    fresh
        .install_faults(report.bundle.fault_plan.clone().unwrap())
        .unwrap();
    snapshot::restore(&mut fresh, &report.bundle.snapshot).unwrap();
    assert_eq!(fresh.time(), report.bundle.step);
    let mut cfg = SentinelConfig::all_halt().with_certificate(CertificateSpec {
        window: 1,
        rate: Ratio::new(1, 3),
        d: 2,
        initial: 0,
        time_priority: false,
    });
    cfg.cadence = 1;
    cfg.deep_stride = 1;
    fresh.attach_sentinel(cfg);
    // The restored queue still holds the overdue packets; the deep
    // certificate scan re-detects them on the very next step.
    let err = fresh.step(Vec::<Injection>::new()).unwrap_err();
    let EngineError::Invariant(rereport) = err else {
        panic!("expected invariant halt, got {err}");
    };
    assert_eq!(rereport.violation.kind, InvariantKind::Certificate);
    assert_eq!(rereport.violation.time, report.bundle.step + 1);
}

#[test]
fn quarantine_bundle_matches_the_halt_bundle() {
    let (halted, _) = drive_to_breach(Severity::Halt);
    let halted = halted.expect("halting breach");

    let (none, eng) = drive_to_breach(Severity::Quarantine);
    assert!(none.is_none(), "quarantine must not abort the run");
    let sentinel = eng.sentinel().expect("attached");
    let quarantined = sentinel.quarantined();
    assert!(!quarantined.is_empty());
    // The first quarantined report is the same breach the halting run
    // died on: same violation, same bundle, observed at the same step.
    assert_eq!(quarantined[0].violation, halted.violation);
    assert_eq!(quarantined[0].bundle, halted.bundle);
    // And the run kept going afterwards.
    assert_eq!(eng.time(), 12);
}

#[test]
fn log_severity_records_the_same_breach_at_the_same_step() {
    let (halted, _) = drive_to_breach(Severity::Halt);
    let halted = halted.expect("halting breach");

    let (none, eng) = drive_to_breach(Severity::Log);
    assert!(none.is_none(), "log must not abort the run");
    let sentinel = eng.sentinel().expect("attached");
    assert!(sentinel.quarantined().is_empty(), "log keeps no bundles");
    let log = sentinel.log();
    assert!(!log.is_empty());
    assert_eq!(log[0], halted.violation, "same breach, same step");

    // Log-severity fidelity is from-scratch determinism: a rerun
    // produces the identical log.
    let (_, eng2) = drive_to_breach(Severity::Log);
    assert_eq!(eng2.sentinel().unwrap().log(), log);
}

// ---------------------------------------------------------------------
// Campaign: find a planted breach, shrink it, emit a regression test
// ---------------------------------------------------------------------

fn planted_config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig {
        seed,
        max_runs: 80,
        ..CampaignConfig::default()
    };
    // The planted tripwire: bound ⌈w·r⌉ = 1, so any cohort of ≥ 3
    // packets sharing a first edge breaches.
    cfg.generator.certificate = Some(CertificateSpec {
        window: 1,
        rate: Ratio::new(1, 8),
        d: 7,
        initial: 0,
        time_priority: false,
    });
    cfg
}

#[test]
fn campaign_finds_and_minimizes_the_planted_breach() {
    let mut corpus = Corpus::new();
    let report = run_campaign(&planted_config(0xCA11), &mut corpus);
    assert!(
        !report.findings.is_empty(),
        "planted breach not found: {}",
        report.summary()
    );
    let finding = &report.findings[0];
    assert_eq!(finding.kind(), InvariantKind::Certificate);
    assert_eq!(
        finding.report.bundle.step, finding.report.violation.time,
        "bundle pinned to the observation step"
    );

    // The shrunk repro is strictly smaller and still breaches.
    let shrunk = finding.shrunk.as_ref().expect("shrinking enabled");
    assert!(shrunk.scenario.weight() < finding.scenario.weight());
    let Outcome::Breach(rerun, _) = run_scenario(&shrunk.scenario) else {
        panic!("shrunk scenario no longer breaches");
    };
    assert_eq!(rerun.violation, shrunk.report.violation);

    // The emitted regression test embeds the shrunk scenario and the
    // breached kind.
    let src = finding.regression_test_source();
    assert!(src.contains("#[test]"));
    assert!(src.contains("InvariantKind::Certificate"));
    assert!(src.contains(&format!("{:016x}", shrunk.scenario.fingerprint())));
    assert!(src.contains("seed: "));
}

#[test]
fn campaigns_replay_identically_from_the_same_seed() {
    let (mut ca, mut cb) = (Corpus::new(), Corpus::new());
    let ra = run_campaign(&planted_config(0xD0_0D), &mut ca);
    let rb = run_campaign(&planted_config(0xD0_0D), &mut cb);
    assert_eq!(ra.runs, rb.runs);
    assert_eq!(ra.clean, rb.clean);
    assert_eq!(ra.findings.len(), rb.findings.len());
    for (fa, fb) in ra.findings.iter().zip(&rb.findings) {
        assert_eq!(fa.scenario, fb.scenario);
        assert_eq!(fa.report.violation, fb.report.violation);
        assert_eq!(fa.duplicates, fb.duplicates);
        let (sa, sb) = (fa.shrunk.as_ref().unwrap(), fb.shrunk.as_ref().unwrap());
        assert_eq!(sa.scenario, sb.scenario);
        assert_eq!(sa.attempts, sb.attempts);
    }
    let fa: Vec<u64> = ca.entries().iter().map(|s| s.fingerprint()).collect();
    let fb: Vec<u64> = cb.entries().iter().map(|s| s.fingerprint()).collect();
    assert_eq!(
        fa, fb,
        "corpus evolution is part of the determinism contract"
    );
}

// ---------------------------------------------------------------------
// Corpus seeding from sweep quarantine output
// ---------------------------------------------------------------------

/// A sweep over per-job certificate tightness: jobs with a breaching
/// bound are quarantined with bundles, and those bundles seed a
/// campaign corpus.
#[test]
fn sweep_quarantine_bundles_seed_the_corpus() {
    let template = Scenario {
        topology: TopologySpec::Line(2),
        protocol: "FIFO".into(),
        seed: 0,
        horizon: 24,
        cadence: 1,
        deep_stride: 1,
        injections: vec![InjectSpec {
            time: 1,
            cohort: CohortSpec {
                route: vec![0, 1],
                tag: 0,
                count: 5,
            },
        }],
        faults: vec![],
        model: vec![],
        certificate: None,
        closed_loop: None,
    };
    // Jobs 1 and 3 get the unsatisfiable bound; 0 and 2 run clean.
    let inputs: Vec<(u64, bool)> = vec![(10, false), (11, true), (12, false), (13, true)];
    let sweep = run_sim_sweep(inputs, 0, None, |_, &(seed, tight)| {
        let mut s = template.clone();
        s.seed = seed;
        if tight {
            s.certificate = Some(CertificateSpec {
                window: 1,
                rate: Ratio::new(1, 3),
                d: 2,
                initial: 0,
                time_priority: false,
            });
            // Give the bundle a fault plan to carry across.
            s.faults = vec![aqt_campaign::FaultSpec::Drop { edge: 1, time: 20 }];
        }
        match run_scenario(&s) {
            Outcome::Clean(stats) => Ok(stats.steps),
            Outcome::Breach(report, _) => Err(SimError::InvariantViolated(report)),
            Outcome::Overrate(e, _) | Outcome::Invalid(e) => Err(SimError::Checkpoint(e)),
        }
    });
    assert_eq!(sweep.results().count(), 2);
    let bundles = sweep.bundles();
    assert_eq!(bundles.len(), 2, "both tight jobs quarantined with bundles");
    assert_eq!(bundles[0].0, 1);
    assert_eq!(bundles[1].0, 3);

    let mut corpus = Corpus::new();
    let added = corpus.seed_from_sweep(&sweep, &template);
    assert_eq!(added, 2);
    // The grafts carry the failing jobs' seeds and fault plans, and
    // remain runnable starting points.
    let seeds: Vec<u64> = corpus.entries().iter().map(|s| s.seed).collect();
    assert_eq!(seeds, vec![11, 13]);
    for entry in corpus.entries() {
        assert!(!entry.faults.is_empty(), "bundle fault plan was grafted");
        entry.build().expect("seeded scenarios must build");
    }
    // Seeding again is a no-op: fingerprint dedup.
    assert_eq!(corpus.seed_from_sweep(&sweep, &template), 0);
}

// ---------------------------------------------------------------------
// Closed-loop scenarios: coverage axis reached, generated, shrinkable
// ---------------------------------------------------------------------

/// Within a bounded budget, the unsteered-plus-steered campaign loop
/// reaches the closed-loop coverage axis: it generates closed-loop
/// scenarios, runs them under the sentinel stack, and records their
/// shed discipline as [`Feature::ClosedLoop`] novelty.
#[test]
fn campaign_reaches_the_closed_loop_axis_within_budget() {
    let cfg = CampaignConfig {
        seed: 0x10_0B,
        max_runs: 200,
        shrink: false,
        ..CampaignConfig::default()
    };
    let mut corpus = Corpus::new();
    let report = run_campaign(&cfg, &mut corpus);
    let axis_hits: u64 = (0..4u8)
        .map(|i| report.coverage.hits(Feature::ClosedLoop(i)))
        .sum();
    assert!(
        axis_hits > 0,
        "closed-loop axis never reached in {} runs: {}",
        report.runs,
        report.summary()
    );
    assert!(
        corpus.entries().iter().any(|s| s.closed_loop.is_some()),
        "no closed-loop scenario was novel enough for the corpus"
    );
}

/// A closed-loop scenario runs clean end-to-end through the campaign
/// runner — sentinel attached, request conservation enforced by the
/// driver, the rate-1 model validating the realized dispatches.
/// (Gated off under `demo-corruption`: the planted absorption bug
/// makes any run with ≥ 6 packets breach conservation, by design.)
#[cfg(not(feature = "demo-corruption"))]
#[test]
fn closed_loop_scenario_runs_clean_under_the_full_stack() {
    use aqt_campaign::{ClosedLoopSpec, RetrySpec, ShedSpec};

    let s = Scenario {
        topology: TopologySpec::Line(2),
        protocol: "FIFO".into(),
        seed: 0xE17,
        horizon: 160,
        cadence: 1,
        deep_stride: 1,
        injections: vec![],
        faults: vec![],
        model: vec![aqt_sim::ConstraintSpec::Rate(Ratio::new(1, 1))],
        certificate: None,
        closed_loop: Some(ClosedLoopSpec {
            num_clients: 6,
            think_time: 4,
            timeout: 5,
            max_attempts: 4,
            retry: RetrySpec::Immediate,
            capacity: 8,
            shed: ShedSpec::RejectNewest,
            pause: Some((30, 50)),
            path_len: 2,
        }),
    };
    let out = run_scenario(&s);
    let Outcome::Clean(stats) = out else {
        panic!("expected clean closed-loop run, got {out:?}");
    };
    assert_eq!(stats.steps, 160);
    assert!(stats.injected > 0, "the loop dispatched work");
    assert!(
        stats.injected - stats.absorbed <= 2,
        "at most path_len packets can still be in flight at the horizon \
         (injected {}, absorbed {})",
        stats.injected,
        stats.absorbed
    );
    assert!(stats.sentinel_rounds > 0);
    // Determinism: the scenario is a pure function of its seed.
    let Outcome::Clean(again) = run_scenario(&s) else {
        panic!("second run must be clean too");
    };
    assert_eq!(stats, again);
}

/// With the planted absorption bug compiled in, a generated
/// closed-loop scenario breaches engine conservation (the vanished
/// packet is also a lost reply), and the shrinker minimizes it within
/// the closed-loop neighborhood — fewer clients, smaller queue, no
/// outage — while the repro keeps breaching.
#[cfg(feature = "demo-corruption")]
#[test]
fn campaign_shrinks_a_closed_loop_conservation_breach() {
    use aqt_campaign::{generate, shrink, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let gcfg = GeneratorConfig::default();
    let mut rng = StdRng::seed_from_u64(0xC10C);
    // Steered generation: draw closed-loop scenarios until one pushes
    // enough attempts through the engine to hit the corrupted packet
    // id (one in 977 — the 6th injected packet of a run).
    let mut found = None;
    for _ in 0..40 {
        let mut s = generate(&mut rng, &gcfg, Some(Feature::ClosedLoop(0)));
        s.horizon = s.horizon.max(160);
        if let Outcome::Breach(report, _) = run_scenario(&s) {
            assert_eq!(report.violation.kind, InvariantKind::Conservation);
            found = Some(s);
            break;
        }
    }
    let s = found.expect("no generated closed-loop scenario tripped the planted bug");
    let out = shrink(&s, InvariantKind::Conservation);
    assert!(out.accepted > 0, "nothing was shrunk");
    assert!(out.scenario.weight() < s.weight());
    assert!(
        out.scenario.closed_loop.is_some(),
        "the breach needs the loop; the shrinker must keep it"
    );
    let Outcome::Breach(rerun, _) = run_scenario(&out.scenario) else {
        panic!("shrunk closed-loop scenario no longer breaches");
    };
    assert_eq!(rerun.violation, out.report.violation);
}

// ---------------------------------------------------------------------
// The planted engine bug (demo-corruption): campaign catches it
// ---------------------------------------------------------------------

/// With the intentionally corrupted absorption path compiled in
/// (absorbed packets with `id % 977 == 5` vanish uncounted), the
/// campaign must hunt down the conservation breach and minimize it.
#[cfg(feature = "demo-corruption")]
#[test]
fn campaign_finds_the_demo_corruption_conservation_breach() {
    let mut cfg = CampaignConfig {
        seed: 0xC0FFEE,
        max_runs: 400,
        ..CampaignConfig::default()
    };
    cfg.generator.max_count = 24;
    let mut corpus = Corpus::new();
    let report = run_campaign(&cfg, &mut corpus);
    let finding = report
        .findings
        .iter()
        .find(|f| f.kind() == InvariantKind::Conservation)
        .unwrap_or_else(|| panic!("conservation breach not found: {}", report.summary()));
    let shrunk = finding.shrunk.as_ref().expect("shrinking enabled");
    assert!(shrunk.scenario.weight() < finding.scenario.weight());
    let Outcome::Breach(rerun, _) = run_scenario(&shrunk.scenario) else {
        panic!("shrunk scenario no longer breaches");
    };
    assert_eq!(rerun.violation.kind, InvariantKind::Conservation);
}
