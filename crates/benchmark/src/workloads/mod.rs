//! The five workloads. Each one sets up its inputs (timed as set-up),
//! runs them (timed as the run), and checks the outputs; its traced
//! pass repeats the work with spans around every layer call.

use std::time::Instant;

use crate::stats::Summary;
use crate::trace::Tracer;

pub mod campaign;
pub mod ring;
pub mod storm;
pub mod sweep;
pub mod thm317;

/// Problem size: the benchmark proper, or the rot check's small
/// version of the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark's numbers are measured at.
    Full,
    /// Small enough for `cargo test`.
    Tiny,
}

/// The workloads, in round-robin order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Theorem 3.17 construction.
    Thm317,
    /// E16 threshold-survival grid.
    Sweep,
    /// E17 closed-loop retry-storm grid.
    Storm,
    /// Campaign fuzzing runs.
    Campaign,
    /// E18-shaped every-buffer-busy ring.
    Ring,
}

impl WorkloadKind {
    /// All workloads, in round-robin order.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Thm317,
        WorkloadKind::Sweep,
        WorkloadKind::Storm,
        WorkloadKind::Campaign,
        WorkloadKind::Ring,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Thm317 => "thm317",
            WorkloadKind::Sweep => "sweep",
            WorkloadKind::Storm => "storm",
            WorkloadKind::Campaign => "campaign",
            WorkloadKind::Ring => "ring",
        }
    }

    /// Inverse of [`WorkloadKind::name`].
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A fresh instance at `seed` and `scale`.
    pub fn instance(self, seed: u64, scale: Scale) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Thm317 => Box::new(thm317::Thm317::new(scale)),
            WorkloadKind::Sweep => Box::new(sweep::Sweep::new(seed, scale)),
            WorkloadKind::Storm => Box::new(storm::Storm::new(seed, scale)),
            WorkloadKind::Campaign => Box::new(campaign::Campaign::new(seed, scale)),
            WorkloadKind::Ring => Box::new(ring::Ring::new(scale)),
        }
    }
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check named `name` with verdict `ok`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// One untraced repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the repetition.
    pub wall_s: f64,
    /// Time spent constructing inputs before the first step.
    pub setup_s: f64,
    /// Time of the run phase (set-up excluded).
    pub run_s: f64,
    /// Simulated steps in the run phase.
    pub steps: u64,
    /// Operations attempted: 1, or one per scenario in `campaign`.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks on the outputs.
    pub checks: Vec<Check>,
}

/// What a traced pass measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Per-layer metric values this workload exercises.
    pub layers: Vec<(&'static str, f64)>,
    /// Wall time of the traced counterpart of one untraced repetition
    /// (for `trace_overhead`).
    pub wall_s: f64,
    /// Extra human-readable findings (ablation quartiles and the like).
    pub notes: Vec<String>,
    /// Correctness checks made while tracing.
    pub checks: Vec<Check>,
}

/// A benchmark workload.
pub trait Workload {
    /// The discarded warm-up repetition. Defaults to a normal one.
    fn warm_up(&mut self) -> Result<Rep, String> {
        self.rep()
    }

    /// One measured repetition.
    fn rep(&mut self) -> Result<Rep, String>;

    /// One traced pass.
    fn traced(&mut self, tracer: &mut Tracer) -> Result<Traced, String>;
}

/// Run `f`, returning its result and wall time in seconds.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// How many times [`set_up`] repeats a set-up step.
const SETUP_REPEATS: usize = 25;

/// Run a set-up step several times and return the last result with the
/// median time. Most set-ups here take well under a millisecond, where
/// a single timing is mostly noise.
pub(crate) fn set_up<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (out, s) = timed(&mut build);
        last = Some(out?);
        times.push(s);
    }
    let last = last.expect("set_up needs at least one repeat");
    Ok((last, Summary::of(&times).median))
}
