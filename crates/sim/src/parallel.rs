//! Crash-safe scoped thread-pool for parameter sweeps.
//!
//! A single AQT run is inherently sequential (the model is a global
//! synchronous clock), but the experiments sweep over protocols, rates,
//! topologies, seeds and report sections — embarrassingly parallel
//! work. [`run_sim_sweep`] is the one entry point: every job runs once
//! under [`std::panic::catch_unwind`], and a job that panics or returns
//! a [`SimError`] is **quarantined** while every other job still
//! completes and returns its result. A 200-point sweep with one
//! poisoned parameter combination yields 199 results plus a structured
//! [`JobFailure`] — not an abort after hours of compute. Jobs are
//! deterministic simulations, so a failed job is not retried: it would
//! fail the same way again.
//!
//! Built on `std` only: workers claim jobs from a shared atomic cursor
//! (no work-stealing, no channels) and the outcomes are put back in
//! input order at the end. A sweep of one job, or on one thread, runs
//! on the calling thread and spawns none.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::error::SimError;
use crate::sentinel::ReproBundle;
use crate::telemetry::{SharedSink, TelemetryEvent};

/// Errors surfaced by the sweep harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// A job panicked or returned a [`SimError`], and was quarantined.
    JobQuarantined {
        /// Input index of the job.
        index: usize,
        /// The panic payload, or the `SimError` display.
        message: String,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::JobQuarantined { index, message } => {
                write!(f, "sweep job {index} was quarantined: {message}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// A quarantined job: it panicked, or it returned a `SimError`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Input index of the job.
    pub index: usize,
    /// The panic payload, or the `SimError` display.
    pub message: String,
    /// The sentinel's reproduction bundle, when the job failed with
    /// [`SimError::InvariantViolated`].
    pub bundle: Option<Box<ReproBundle>>,
}

/// Outcome of one sweep job.
#[derive(Debug, Clone)]
pub enum JobOutcome<R> {
    /// The job completed.
    Done(R),
    /// The job was quarantined.
    Quarantined(JobFailure),
}

impl<R> JobOutcome<R> {
    /// The result, if the job completed.
    pub fn ok(&self) -> Option<&R> {
        match self {
            JobOutcome::Done(r) => Some(r),
            JobOutcome::Quarantined(_) => None,
        }
    }
}

/// Aggregated result of a crash-safe sweep.
#[derive(Debug)]
pub struct SweepReport<R> {
    /// One outcome per input, in input order.
    pub outcomes: Vec<JobOutcome<R>>,
}

impl<R> SweepReport<R> {
    /// Completed results in input order (quarantined jobs skipped) —
    /// the partial aggregation a long sweep reports.
    pub fn results(&self) -> impl Iterator<Item = &R> {
        self.outcomes.iter().filter_map(JobOutcome::ok)
    }

    /// The quarantine list.
    pub fn quarantined(&self) -> Vec<&JobFailure> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                JobOutcome::Quarantined(q) => Some(q),
                JobOutcome::Done(_) => None,
            })
            .collect()
    }

    /// Reproduction bundles captured by quarantined jobs, with their
    /// input indices — the jobs that failed with
    /// [`SimError::InvariantViolated`]. This is the campaign corpus
    /// ingestion point: every sweep failure that carries a bundle can
    /// seed mutation (`aqt-campaign`'s `Corpus::seed_from_sweep`).
    pub fn bundles(&self) -> Vec<(usize, &ReproBundle)> {
        self.quarantined()
            .into_iter()
            .filter_map(|q| q.bundle.as_deref().map(|b| (q.index, b)))
            .collect()
    }

    /// `Ok(results)` if nothing was quarantined, else the first
    /// failure as a typed error.
    pub fn into_complete(self) -> Result<Vec<R>, HarnessError> {
        self.outcomes
            .into_iter()
            .map(|o| match o {
                JobOutcome::Done(r) => Ok(r),
                JobOutcome::Quarantined(q) => Err(HarnessError::JobQuarantined {
                    index: q.index,
                    message: q.message,
                }),
            })
            .collect()
    }
}

/// Render a panic payload for quarantine reports.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into())
    }
}

/// Map `f` over `inputs` on `threads` workers (`0` = available
/// parallelism) with per-job panic isolation. `f` receives
/// `(index, &item)`; a job that panics or returns `Err` is quarantined
/// after its one attempt, and a [`SimError::InvariantViolated`] keeps
/// the sentinel's reproduction bundle on its [`JobFailure`], so the
/// one bad cell can be replayed in isolation. Input order is preserved
/// in [`SweepReport::outcomes`].
///
/// With a `progress` sink, each job reports `job_started`, then
/// exactly one of `job_finished` or `job_quarantined` when it settles,
/// then a [`TelemetryEvent::SweepProgress`] ETA line. The sink is
/// shared across worker threads — that is what [`SharedSink`] exists
/// for — and the sweep's outcomes do not depend on it.
pub fn run_sim_sweep<T, R, F>(
    inputs: Vec<T>,
    threads: usize,
    progress: Option<&SharedSink>,
    f: F,
) -> SweepReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, SimError> + Sync,
{
    let n = inputs.len();
    let record = |event: TelemetryEvent<'_>| {
        if let Some(sink) = progress {
            sink.record(&event);
        }
    };
    let cursor = AtomicUsize::new(0);
    let settled = AtomicUsize::new(0);
    let sweep_t0 = Instant::now();

    let run_one = |i: usize| -> JobOutcome<R> {
        record(TelemetryEvent::JobStarted { index: i, total: n });
        let job_t0 = Instant::now();
        let failure = |message: String, bundle| {
            record(TelemetryEvent::JobQuarantined { index: i });
            JobOutcome::Quarantined(JobFailure {
                index: i,
                message,
                bundle,
            })
        };
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(i, &inputs[i]))) {
            Ok(Ok(r)) => {
                record(TelemetryEvent::JobFinished {
                    index: i,
                    secs: job_t0.elapsed().as_secs_f64(),
                });
                JobOutcome::Done(r)
            }
            Ok(Err(e)) => {
                let bundle = match &e {
                    SimError::InvariantViolated(report) => Some(Box::new(report.bundle.clone())),
                    _ => None,
                };
                failure(e.to_string(), bundle)
            }
            Err(payload) => failure(panic_message(payload.as_ref()), None),
        };
        // Jobs take comparable time within one sweep, so
        // `elapsed / done × remaining` is the honest first-order ETA.
        let done = settled.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed_secs = sweep_t0.elapsed().as_secs_f64();
        record(TelemetryEvent::SweepProgress {
            done,
            total: n,
            elapsed_secs,
            eta_secs: elapsed_secs / done as f64 * (n - done) as f64,
        });
        outcome
    };
    // One worker: claim the next job until none are left.
    let work = || {
        let mut claimed = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return claimed;
            }
            claimed.push((i, run_one(i)));
        }
    };

    let threads = effective_threads(threads, n);
    let mut outcomes = if threads <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    SweepReport {
        outcomes: outcomes.into_iter().map(|(_, o)| o).collect(),
    }
}

fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.min(work_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let report = run_sim_sweep(inputs, 4, None, |i, &x| {
            assert_eq!(i as u64, x);
            Ok(x * x)
        });
        let out = report.into_complete().expect("no job fails");
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn runs_on_multiple_threads() {
        // Not a strict guarantee, but with 8 sleepy tasks on 4 threads
        // at least 2 distinct threads should participate.
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        run_sim_sweep(vec![(); 8], 4, None, |_, ()| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            ids.lock().unwrap().insert(std::thread::current().id());
            Ok(())
        });
        assert!(ids.lock().unwrap().len() >= 2);
    }

    #[test]
    fn empty_and_single() {
        let report = run_sim_sweep(Vec::<u32>::new(), 4, None, |_, &x| Ok(x));
        assert!(report.outcomes.is_empty());
        // One job runs on the calling thread, whatever `threads` says.
        let caller = std::thread::current().id();
        let report = run_sim_sweep(vec![7u32], 4, None, |_, &x| {
            assert_eq!(std::thread::current().id(), caller);
            Ok(x + 1)
        });
        assert_eq!(report.into_complete().expect("one clean job"), vec![8]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let count = AtomicUsize::new(0);
        let report = run_sim_sweep((0..32).collect::<Vec<i32>>(), 0, None, |_, &x| {
            count.fetch_add(1, Ordering::Relaxed);
            Ok(x)
        });
        assert_eq!(report.results().count(), 32);
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn sweep_isolates_a_panicking_job() {
        let report = run_sim_sweep((0..20u64).collect(), 4, None, |_, &x| {
            if x == 13 {
                panic!("poisoned parameter combination: {x}");
            }
            Ok(x * 2)
        });
        assert_eq!(report.outcomes.len(), 20);
        let results: Vec<u64> = report.results().copied().collect();
        let expected: Vec<u64> = (0..20).filter(|&x| x != 13).map(|x| x * 2).collect();
        assert_eq!(results, expected);
        let q = report.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].index, 13);
        assert!(q[0].message.contains("poisoned"));
    }

    #[test]
    fn sweep_into_complete_surfaces_typed_error() {
        let report = run_sim_sweep(vec![0u8, 1], 1, None, |_, &x| {
            if x == 1 {
                panic!("always");
            }
            Ok(x)
        });
        assert_eq!(
            report.into_complete(),
            Err(HarnessError::JobQuarantined {
                index: 1,
                message: "always".into(),
            })
        );
        // A `SimError` is quarantined too, and its error says what
        // happened instead of claiming a panic.
        let report = run_sim_sweep(vec![0u8, 1], 1, None, |_, &x| {
            if x == 0 {
                return Err(SimError::Checkpoint("graph mismatch".into()));
            }
            Ok(x)
        });
        let err = report.into_complete().unwrap_err();
        assert_eq!(
            err,
            HarnessError::JobQuarantined {
                index: 0,
                message: "checkpoint restore failed: graph mismatch".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "sweep job 0 was quarantined: checkpoint restore failed: graph mismatch"
        );
    }

    #[test]
    fn sweep_single_threaded_path() {
        let report = run_sim_sweep(vec![5u64], 0, None, |i, &x| Ok(x + i as u64));
        assert_eq!(report.results().copied().collect::<Vec<_>>(), vec![5]);
        assert!(report.quarantined().is_empty());
    }
}
