//! Rot check: every workload, untraced and traced, at tiny scale; the
//! `compare` subcommand on two tiny results; and the two replicas the
//! benchmark builds from public pieces — the E16 sweep driver and the
//! campaign loop — pinned against the library's own runners.

use aqt_benchmark::harness::{self, Budget, Options};
use aqt_benchmark::json::Json;
use aqt_benchmark::workloads::campaign::{replica, Counts};
use aqt_benchmark::workloads::sweep;
use aqt_benchmark::{compare, Scale, WorkloadKind, END_TO_END, PER_LAYER};
use aqt_campaign::{run_campaign, CampaignConfig, Corpus};
use aqt_core::experiments::e16_model_landscape;

fn tiny(seed: u64, trace: bool) -> Vec<harness::WorkloadResult> {
    let opts = Options {
        seed,
        scale: Scale::Tiny,
        budget: Budget::Seconds(0.01),
        trace,
        workloads: WorkloadKind::ALL.to_vec(),
    };
    harness::run(&opts).0
}

#[test]
fn every_workload_runs_correctly_untraced_and_traced() {
    let results = tiny(3, true);
    let report = harness::report(&results, None);
    for r in &results {
        assert!(r.correct(), "{} failed:\n{report}", r.kind.name());
        assert_eq!(r.failed_share(), 0.0);
        assert!(r.samples.len() >= harness::MIN_REPS);
        let line = harness::summary_line(r, false);
        for m in END_TO_END {
            let v = line.get("metrics").and_then(|x| x.get(m.name));
            let v = v.and_then(|x| x.get("value")).and_then(Json::as_f64);
            assert!(
                v.is_some_and(|v| v > 0.0),
                "{} {}: {v:?}",
                r.kind.name(),
                m.name
            );
        }
        let traced = harness::summary_line(r, true);
        for (name, _) in PER_LAYER {
            let v = traced.get("metrics").and_then(|x| x.get(name));
            let v = v.and_then(|x| x.get("value")).and_then(Json::as_f64);
            assert!(
                v.is_some_and(f64::is_finite),
                "{} {name}: {v:?}",
                r.kind.name()
            );
        }
        // Each traced pass fills its own layers; trace_overhead is
        // everyone's.
        let t = r.traced.as_ref().expect("traced pass ran");
        assert!(!t.layers.is_empty(), "{} has no layers", r.kind.name());
        assert!(r.layer("trace_overhead").is_some_and(|x| x > 0.0));
    }
}

#[test]
fn compare_passes_on_itself_and_flags_a_regression() {
    let a = harness::results_json(5, &tiny(5, false));
    let (table, pass) = compare::compare(&a, &a).expect("comparable");
    assert!(pass, "a result compared with itself must pass:\n{table}");
    assert!(!table.contains("worse"), "{table}");
    // Pin every wall time's quartiles to its median (tiny reps are too
    // short to resolve anything), then double the new side's.
    let old = map_wall(&a, |x| x);
    let new = map_wall(&a, |x| 2.0 * x);
    let (table, pass) = compare::compare(&old, &new).expect("comparable");
    assert!(!pass && table.contains("worse"), "{table}");
}

/// `doc` with every workload's `wall_s` median, q1 and q3 set to
/// `f(median)`.
fn map_wall(doc: &Json, f: impl Fn(f64) -> f64) -> Json {
    let mut doc = doc.clone();
    let Some(Json::Obj(workloads)) = doc.get_mut("workloads") else {
        panic!("results have a workloads object")
    };
    for (_, w) in workloads {
        let wall = w
            .get_mut("metrics")
            .and_then(|m| m.get_mut("wall_s"))
            .expect("wall_s summary");
        let v = f(wall.get("median").and_then(Json::as_f64).expect("median"));
        *wall = Json::object()
            .with("median", v)
            .with("q1", v)
            .with("q3", v)
            .with("n", 7u64);
    }
    doc
}

#[test]
fn sweep_driver_at_seed_1600_reproduces_e16() {
    let steps = 300;
    let (cells, _) = sweep::grid(1600, steps, None).expect("legal adversaries");
    let rows = e16_model_landscape(3, 12, steps, None).expect("legal adversaries");
    assert_eq!(cells.len(), rows.len());
    for (c, r) in cells.iter().zip(&rows) {
        let key = format!("{}/{}/f{}", r.model, r.protocol, r.rate_factor);
        assert_eq!(c.model, r.model, "{key}");
        assert_eq!(c.protocol, r.protocol, "{key}");
        assert_eq!(c.rate_factor, r.rate_factor, "{key}");
        assert_eq!(c.bound, r.bound, "{key}");
        assert_eq!(c.max_wait, r.max_wait, "{key}");
        assert_eq!(c.max_queue, r.max_queue, "{key}");
        assert_eq!(c.verdict, r.verdict, "{key}");
        assert_eq!(c.survives, r.survives, "{key}");
    }
}

#[test]
fn campaign_replica_matches_run_campaign() {
    let cfg = CampaignConfig {
        seed: 11,
        max_runs: 300,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg, &mut Corpus::new());
    let r = replica(&cfg, 0, None);
    assert_eq!(r.counts, Counts::of_report(&report));
    assert!(r.steps > 0 && r.novel_runs > 0);
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            j.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
    }
    let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, (name, unit)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(j.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(j.get("unit").and_then(Json::as_str), Some(unit));
    }
}
