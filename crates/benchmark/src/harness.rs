//! Repetitions, summaries and the files and lines a run leaves behind.
//!
//! Every selected workload first runs one discarded warm-up
//! repetition. Measured repetitions then go round-robin over the
//! workloads (ABCD-ABCD), so drift on the host spreads over all of
//! them instead of landing on one. The peak-RSS mark is reset before
//! each repetition. With tracing on, one traced pass per workload
//! follows.

use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{Check, Rep, Scale, Traced, WorkloadKind};
use crate::{END_TO_END, PER_LAYER};

/// How many measured repetitions to take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// [`REPS`] each.
    Reps,
    /// Keep going round-robin until this many seconds per selected
    /// workload have passed (at least [`MIN_REPS`] each).
    Seconds(f64),
}

/// Measured repetitions per workload under the fixed budget. With 11,
/// the third quartile is the 9th of 11 samples, so two repetitions
/// caught in a busy spell on the host do not move it.
pub const REPS: usize = 11;
/// Fewest measured repetitions under a time budget.
pub const MIN_REPS: usize = 3;
/// Most measured repetitions under a time budget.
pub const MAX_REPS: usize = 60;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Problem size.
    pub scale: Scale,
    /// Repetition budget.
    pub budget: Budget,
    /// Run the traced pass after measuring.
    pub trace: bool,
    /// Selected workloads, in round-robin order.
    pub workloads: Vec<WorkloadKind>,
}

/// The end-to-end values of one measured repetition.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Repetition wall time.
    pub wall_s: f64,
    /// Set-up time.
    pub setup_s: f64,
    /// Simulated steps per second of the run phase.
    pub steps_per_s: f64,
    /// Operations per second of wall time.
    pub runs_per_s: f64,
    /// Peak resident set during the repetition.
    pub peak_rss_mb: f64,
}

impl Sample {
    fn of(rep: &Rep, peak_rss_mb: f64) -> Sample {
        Sample {
            wall_s: rep.wall_s,
            setup_s: rep.setup_s,
            steps_per_s: rep.steps as f64 / rep.run_s,
            runs_per_s: rep.ops as f64 / rep.wall_s,
            peak_rss_mb,
        }
    }

    /// The value of end-to-end metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        Some(match name {
            "wall_s" => self.wall_s,
            "setup_s" => self.setup_s,
            "steps_per_s" => self.steps_per_s,
            "runs_per_s" => self.runs_per_s,
            "peak_rss_mb" => self.peak_rss_mb,
            _ => return None,
        })
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub kind: WorkloadKind,
    /// One entry per measured repetition.
    pub samples: Vec<Sample>,
    /// Operations attempted over the measured repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Per check name: its first failure, else its latest result.
    pub checks: Vec<Check>,
    /// Errors that stopped a repetition.
    pub errors: Vec<String>,
    /// The traced pass, when one ran.
    pub traced: Option<Traced>,
}

impl WorkloadResult {
    fn new(kind: WorkloadKind) -> WorkloadResult {
        WorkloadResult {
            kind,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            errors: Vec::new(),
            traced: None,
        }
    }

    fn merge_checks(&mut self, checks: &[Check]) {
        for c in checks {
            match self.checks.iter_mut().find(|k| k.name == c.name) {
                Some(k) if k.ok => *k = c.clone(),
                Some(_) => {}
                None => self.checks.push(c.clone()),
            }
        }
    }

    /// Summary of end-to-end metric `name` over the repetitions.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let values: Vec<f64> = self.samples.iter().filter_map(|s| s.get(name)).collect();
        (!values.is_empty()).then(|| Summary::of(&values))
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// No errors, no failed operation, every check held.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|c| c.ok)
    }

    /// Traced wall time over the untraced median wall time.
    pub fn trace_overhead(&self) -> Option<f64> {
        let traced = self.traced.as_ref()?;
        Some(traced.wall_s / self.summary("wall_s")?.median)
    }

    /// Per-layer metric `name`: the traced pass's value, 0 for a layer
    /// this workload bypasses, `None` without a traced pass.
    pub fn layer(&self, name: &str) -> Option<f64> {
        if name == "trace_overhead" {
            return self.trace_overhead();
        }
        let traced = self.traced.as_ref()?;
        Some(
            traced
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        )
    }
}

/// Run the selected workloads: warm-up, round-robin measured
/// repetitions, then (with `opts.trace`) the traced passes. Returns the
/// results and the tracer that recorded the traced passes.
pub fn run(opts: &Options) -> (Vec<WorkloadResult>, Option<Tracer>) {
    let mut states: Vec<_> = opts
        .workloads
        .iter()
        .map(|w| w.instance(opts.seed, opts.scale))
        .collect();
    let mut results: Vec<WorkloadResult> = opts
        .workloads
        .iter()
        .map(|&w| WorkloadResult::new(w))
        .collect();

    for (state, result) in states.iter_mut().zip(&mut results) {
        progress(&format!("{}: warm-up", result.kind.name()));
        if let Err(e) = state.warm_up() {
            result.errors.push(format!("warm-up: {e}"));
        }
    }

    let start = Instant::now();
    for round in 0..MAX_REPS {
        let mut ran = false;
        for (state, result) in states.iter_mut().zip(&mut results) {
            let wanted = match opts.budget {
                Budget::Reps => round < REPS,
                Budget::Seconds(s) => {
                    round < MIN_REPS
                        || start.elapsed().as_secs_f64() < s * opts.workloads.len() as f64
                }
            };
            if !wanted || !result.errors.is_empty() {
                continue;
            }
            ran = true;
            host::reset_peak_rss();
            match state.rep() {
                Ok(rep) => {
                    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
                    let sample = Sample::of(&rep, rss);
                    progress(&format!(
                        "{}: rep {} wall {:.4} s, set-up {:.4} s",
                        result.kind.name(),
                        round + 1,
                        sample.wall_s,
                        sample.setup_s
                    ));
                    result.samples.push(sample);
                    result.attempted += rep.ops;
                    result.failed += rep.failed;
                    result.merge_checks(&rep.checks);
                }
                Err(e) => {
                    result.attempted += 1;
                    result.failed += 1;
                    result.errors.push(e);
                }
            }
        }
        if !ran {
            break;
        }
    }

    if !opts.trace {
        return (results, None);
    }
    let mut tracer = Tracer::new();
    for (state, result) in states.iter_mut().zip(&mut results) {
        progress(&format!("{}: traced pass", result.kind.name()));
        tracer.set_workload(result.kind.name());
        match state.traced(&mut tracer) {
            Ok(traced) => {
                result.merge_checks(&traced.checks);
                result.traced = Some(traced);
            }
            Err(e) => result.errors.push(format!("traced pass: {e}")),
        }
    }
    (results, Some(tracer))
}

fn progress(line: &str) {
    eprintln!("[aqt-benchmark] {line}");
}

/// The human-readable report: every metric by name with its unit, the
/// checks, and the traced pass's findings.
pub fn report(results: &[WorkloadResult], tracer: Option<&Tracer>) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "\n== {} ==  {} ops attempted, {} failed (failed_share {})\n",
            r.kind.name(),
            r.attempted,
            r.failed,
            r.failed_share()
        ));
        for m in END_TO_END {
            if let Some(s) = r.summary(m.name) {
                out.push_str(&format!(
                    "  {:<12} {:>14.6} {:<4} q1 {:.6} q3 {:.6} n {} (spread {:.2}%, bound {:.0}%)\n",
                    m.name,
                    s.median,
                    m.unit,
                    s.q1,
                    s.q3,
                    s.n,
                    100.0 * s.spread(),
                    100.0 * m.bound
                ));
            }
        }
        for c in &r.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            out.push_str(&format!("  check {verdict} {}: {}\n", c.name, c.detail));
        }
        for e in &r.errors {
            out.push_str(&format!("  error: {e}\n"));
        }
        if let Some(t) = &r.traced {
            out.push_str("  per-layer (traced):\n");
            for (name, unit) in PER_LAYER {
                let exercised =
                    name == "trace_overhead" || t.layers.iter().any(|(n, _)| *n == name);
                if let (true, Some(v)) = (exercised, r.layer(name)) {
                    out.push_str(&format!("    {name:<30} {v:>16.4} {unit}\n"));
                }
            }
            for note in &t.notes {
                out.push_str(&format!("    {note}\n"));
            }
        }
    }
    if let Some(tracer) = tracer {
        out.push_str("\n== self time by span and aggregated call (traced pass, top 6 each) ==\n");
        let rows = tracer.self_time_by_name();
        for r in results {
            let w = r.kind.name();
            for (_, name, ns) in rows.iter().filter(|row| row.0 == w).take(6) {
                out.push_str(&format!(
                    "  {w:<9} {name:<28} {:>10.4} s\n",
                    *ns as f64 / 1e9
                ));
            }
        }
    }
    out
}

fn summary_json(r: &WorkloadResult, with_values: bool) -> Json {
    let mut metrics = Json::object();
    for m in END_TO_END {
        if let Some(s) = r.summary(m.name) {
            let mut j = s.to_json();
            if with_values {
                let values: Vec<Json> = r
                    .samples
                    .iter()
                    .filter_map(|x| x.get(m.name))
                    .map(Json::Num)
                    .collect();
                j.push("values", values);
            }
            metrics.push(m.name, j);
        }
    }
    metrics
}

/// Every per-layer metric as `{"value", "unit"}` (null without a
/// traced pass).
fn layers_json(r: &WorkloadResult) -> Json {
    let mut layers = Json::object();
    for (name, unit) in PER_LAYER {
        let v = r.layer(name).unwrap_or(f64::NAN);
        layers.push(name, Json::object().with("value", v).with("unit", unit));
    }
    layers
}

/// The full results file: provenance, and per workload every
/// end-to-end summary with its raw values, the counts, checks and the
/// traced pass's per-layer values.
pub fn results_json(seed: u64, results: &[WorkloadResult]) -> Json {
    let mut workloads = Json::object();
    for r in results {
        let mut w = Json::object()
            .with("metrics", summary_json(r, true))
            .with("attempted", r.attempted)
            .with("failed", r.failed)
            .with("failed_share", r.failed_share())
            .with("correct", r.correct());
        let checks: Vec<Json> = r
            .checks
            .iter()
            .map(|c| {
                Json::object()
                    .with("name", c.name.as_str())
                    .with("ok", c.ok)
                    .with("detail", c.detail.as_str())
            })
            .collect();
        w.push("checks", checks);
        let errors: Vec<Json> = r.errors.iter().map(|e| Json::from(e.as_str())).collect();
        w.push("errors", errors);
        if let Some(t) = &r.traced {
            w.push("per_layer", layers_json(r));
            let notes: Vec<Json> = t.notes.iter().map(|n| Json::from(n.as_str())).collect();
            w.push("notes", notes);
        }
        workloads.push(r.kind.name(), w);
    }
    Json::object()
        .with("provenance", host::provenance())
        .with("seed", seed)
        .with("workloads", workloads)
}

/// One history row: provenance, seed, and per workload × end-to-end
/// metric the median, quartiles and n.
pub fn history_row(seed: u64, results: &[WorkloadResult]) -> Json {
    let mut row = host::provenance().with("seed", seed);
    let mut workloads = Json::object();
    for r in results {
        let mut metrics = summary_json(r, false);
        metrics.push("failed_share", r.failed_share());
        workloads.push(r.kind.name(), metrics);
    }
    row.push("workloads", workloads);
    row
}

/// The one-line summary of a single-workload run: correctness, counts,
/// and every end-to-end metric (untraced) or every per-layer metric
/// (traced), each as `{"value", "unit"}`.
pub fn summary_line(result: &WorkloadResult, traced: bool) -> Json {
    let metrics = if traced {
        layers_json(result)
    } else {
        let mut metrics = Json::object();
        for m in END_TO_END {
            let v = result.summary(m.name).map_or(f64::NAN, |s| s.median);
            metrics.push(m.name, Json::object().with("value", v).with("unit", m.unit));
        }
        metrics
    };
    // A workload that never completed an operation counts as one
    // failed attempt.
    let (attempted, failed) = match result.attempted {
        0 => (1, 1),
        n => (n, result.failed),
    };
    Json::object()
        .with("correct", result.correct())
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
}
