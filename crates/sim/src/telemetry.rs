//! Live instrumentation for the staged step pipeline.
//!
//! The batch [`crate::Metrics`] struct answers "what happened over the
//! whole run"; this module answers "what is happening *now*" — the
//! interval quantities (per-edge crossing rates over windows, backlog
//! growth, stage latencies) that the empirical-stability literature
//! diagnoses from. Three layers, each zero-cost when off:
//!
//! * **Counters** ([`TelemetryCounters`]) — steps and packets sent,
//!   absorbed and injected, read off the engine's clock and
//!   [`crate::Metrics`] relative to a baseline taken at attach, plus
//!   the sentinel rounds and windows emitted, counted where they
//!   happen. The step path writes no counter; window records and
//!   timing samples join the engine's one probe schedule, so the
//!   disabled path costs one compare and a flag read and never touches
//!   the heap — `tests/alloc_regression.rs` pins this.
//! * **Stage timing** ([`StageTimings`]) — coarse [`Log2Histogram`]
//!   latency histograms per substage and per oracle/sentinel pass.
//!   `std::time::Instant` only; no external deps.
//! * **Structured export** — a [`TelemetrySink`] trait fed
//!   [`TelemetryEvent`]s. [`TelemetryEvent::write_jsonl`] is the one
//!   encoder: a schema-versioned JSONL line per record (versioned like
//!   snapshots — see [`TELEMETRY_SCHEMA_VERSION`]). The sinks are thin:
//!   a JSONL writer over any `io::Write` ([`JsonlSink`]), a
//!   preallocated in-memory ring of the latest record kinds
//!   ([`RingSink`]) and a thread-safe shareable handle
//!   ([`SharedSink`]). Every engine-emitted record carries the run's
//!   [`Provenance`] (seed, schedule hash, protocol, fault-plan id), so
//!   a JSONL line is joinable to the [`crate::ReproBundle`] of a
//!   sentinel report from the same run.
//!
//! The sweep harness ([`crate::parallel::run_sim_sweep`]) reports
//! per-job start and finish-or-quarantine events plus an ETA line
//! through the same sink family; a [`JsonlSink`] over stderr is the
//! progress printer.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::metrics::Metrics;
use crate::packet::Time;

/// Version stamp written on every JSONL record. Bump when the record
/// shapes change; consumers fail closed on unknown versions (the same
/// policy as [`crate::SNAPSHOT_SCHEMA_VERSION`]).
///
/// History:
/// * **1** — initial schema: `run_start` / `window` / `run_end` /
///   `job_started` / `job_finished` / job-retry /
///   `job_quarantined` / `sweep_progress` records.
/// * **2** — counter blocks gained `windows_emitted` (the campaign
///   coverage map's window-emission dimension).
/// * **3** — provenance blocks gained `model_fingerprint` (the
///   [`crate::rate::AdversaryModelSpec::fingerprint`] of the run's
///   adversary model), so a record names the exact constraint
///   composition its run validated under.
/// * **4** — added the `workload_window` record (the closed-loop
///   request ledger: `requests_issued` / `requests_completed` /
///   `requests_abandoned` / `requests_shed` / `requests_in_flight` /
///   `attempts_issued` / `attempts_retried` / `attempts_shed` /
///   `completions_wasted` running totals plus the per-window
///   `goodput` / `wasted` / `offered` split), and job-retry records
///   gained `backoff_ms`.
/// * **5** — the queue observatory (`crate::observe`): added the
///   `backlog` record (fixed-cadence queue-depth series with the
///   certificate-margin tracker and per-partition cumulative sent
///   counts) and the `span` record (seeded 1-in-N sampled
///   packet-lifecycle events, each tagged with its edge partition);
///   counter blocks gained four counters and `run_end` timing blocks
///   two histograms for in-run parallel stepping.
/// * **6** — in-run parallel stepping was removed, and with it the
///   per-partition fields: the four counters, the two histograms, the
///   `backlog` record's sent-count array and the `span` record's
///   partition tag.
/// * **7** — the sweep harness no longer retries: the job-retry
///   record is gone, and `job_finished` and `job_quarantined` lost
///   their `attempts` field (it was always 1).
/// * **8** — counter blocks lost the six counters nothing read
///   (`packets_forwarded`, `cohorts_admitted`, `buffers_compacted`,
///   `memo_hits`, `memo_misses`, `oracle_diffs`); the flow counters
///   are read off the engine's metrics, so `packets_injected` now
///   includes initial-configuration seeds placed after the attach.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 8;

/// How much the engine instruments per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryLevel {
    /// No instrumentation: the step pipeline pays one flag read and
    /// one integer compare, nothing else.
    Off,
    /// Counters and window records.
    Counters,
    /// Counters plus per-substage latency histograms (two
    /// `Instant::now` calls per timed substage).
    Timing,
}

impl TelemetryLevel {
    /// Are the counters maintained at this level?
    pub fn counters(self) -> bool {
        self >= TelemetryLevel::Counters
    }

    /// Are the stage timings maintained at this level?
    pub fn timing(self) -> bool {
        self >= TelemetryLevel::Timing
    }
}

/// Identity of the run every engine-emitted record carries, joinable
/// to a [`crate::ReproBundle`]: same seed, same fault plan, plus the
/// hash of the driving schedule when the run replays one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// RNG seed of the run, when one exists (matches
    /// [`crate::SentinelConfig::seed`] / [`crate::ReproBundle::seed`]).
    pub seed: Option<u64>,
    /// [`crate::Schedule::content_hash`] of the driving schedule, for
    /// replay runs.
    pub schedule_hash: Option<u64>,
    /// Protocol name ([`crate::Protocol::name`]).
    pub protocol: String,
    /// [`crate::FaultPlan::plan_id`] of the installed fault plan.
    /// Filled in automatically by [`crate::Engine::attach_telemetry`]
    /// when left `None` and a plan is installed.
    pub fault_plan_id: Option<u64>,
    /// [`crate::rate::AdversaryModelSpec::fingerprint`] of the engine's
    /// adversary model. Filled in automatically by
    /// [`crate::Engine::attach_telemetry`] when left `None` and the
    /// engine validates.
    pub model_fingerprint: Option<u64>,
}

/// At [`TelemetryLevel::Timing`], the stage histograms are recorded on
/// every this-many-th step. Stage timing is *sampled*: a full set of
/// per-substage clock reads costs a sizeable fraction of a fast step,
/// so timing every step would distort the quantity being measured. A
/// stride of 512 keeps the histograms statistically faithful while the
/// clock cost amortizes to noise even on drain-heavy workloads whose
/// steps are a handful of nanoseconds.
pub(crate) const TIMING_SAMPLE_EVERY: Time = 512;

/// Telemetry configuration. The default is the "watch a run" shape:
/// counters on, a window record every 4096 steps, no timing
/// histograms. Use [`TelemetryConfig::off`] for the do-nothing config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Instrumentation level.
    pub level: TelemetryLevel,
    /// Emit a [`TelemetryEvent::Window`] record every this many steps
    /// (0 = never). Ignored when `level` is [`TelemetryLevel::Off`].
    pub window: Time,
    /// Run identity stamped on every emitted record.
    pub provenance: Provenance,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            level: TelemetryLevel::Counters,
            window: 4096,
            provenance: Provenance::default(),
        }
    }
}

impl TelemetryConfig {
    /// The do-nothing configuration (what an engine starts with).
    pub fn off() -> Self {
        TelemetryConfig {
            level: TelemetryLevel::Off,
            window: 0,
            provenance: Provenance::default(),
        }
    }

    /// Counters plus stage-timing histograms at the default window.
    pub fn timing() -> Self {
        TelemetryConfig {
            level: TelemetryLevel::Timing,
            ..Default::default()
        }
    }

    /// This configuration with `provenance`.
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// This configuration with a window of `window` steps.
    pub fn with_window(mut self, window: Time) -> Self {
        self.window = window;
        self
    }
}

/// The telemetry counters (all zero below [`TelemetryLevel::Counters`]).
/// A [`TelemetryEvent::Window`] record carries the *delta* of these
/// over the window; [`crate::Engine::telemetry_counters`] returns the
/// running totals since the attach, which survive snapshot and
/// checkpoint restores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryCounters {
    /// Steps executed (the clock's advance).
    pub steps: u64,
    /// Packets sent in substep 1 (including ones later lost to wire
    /// faults): the growth of Σ [`crate::Metrics::crossings_per_edge`].
    pub packets_sent: u64,
    /// Packets absorbed at their destination.
    pub packets_absorbed: u64,
    /// Packets admitted (injections, bursts, and — when telemetry is
    /// attached before seeding — initial-configuration seeds).
    pub packets_injected: u64,
    /// Sentinel check rounds started (a round that halts the run
    /// counts).
    pub sentinel_rounds: u64,
    /// Telemetry windows closed and emitted (including the final
    /// partial window). A campaign coverage dimension: runs that never
    /// cross a window boundary exercise none of the window-emission
    /// path.
    pub windows_emitted: u64,
}

impl TelemetryCounters {
    /// Field-wise `self - base` (saturating): the per-window delta.
    pub fn delta_since(&self, base: &TelemetryCounters) -> TelemetryCounters {
        self.zip(base, u64::saturating_sub)
    }

    /// The engine flow the step counters read: the clock, Σ crossings
    /// and the absorbed and injected totals.
    fn flow(now: Time, m: &Metrics) -> TelemetryCounters {
        TelemetryCounters {
            steps: now,
            packets_sent: m.crossings_per_edge.iter().sum(),
            packets_absorbed: m.absorbed,
            packets_injected: m.injected,
            ..TelemetryCounters::default()
        }
    }

    fn zip(&self, other: &TelemetryCounters, f: impl Fn(u64, u64) -> u64) -> TelemetryCounters {
        TelemetryCounters {
            steps: f(self.steps, other.steps),
            packets_sent: f(self.packets_sent, other.packets_sent),
            packets_absorbed: f(self.packets_absorbed, other.packets_absorbed),
            packets_injected: f(self.packets_injected, other.packets_injected),
            sentinel_rounds: f(self.sentinel_rounds, other.sentinel_rounds),
            windows_emitted: f(self.windows_emitted, other.windows_emitted),
        }
    }
}

/// The closed-loop request ledger (`aqt-workload`): running totals of
/// the request-conservation partition (`requests_issued =
/// requests_completed + requests_abandoned + requests_shed +
/// requests_in_flight`) plus attempt-level activity. Defined here so
/// [`TelemetryEvent::WorkloadWindow`] can carry it without a
/// dependency cycle — the workload crate fills it in, the sinks only
/// serialize it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadCounters {
    /// Requests issued by clients (first attempts only).
    pub requests_issued: u64,
    /// Requests whose reply arrived while the client still waited.
    pub requests_completed: u64,
    /// Requests whose retry budget ran out waiting.
    pub requests_abandoned: u64,
    /// Requests terminally rejected at admission (final attempt shed).
    pub requests_shed: u64,
    /// Requests still open (waiting, queued, in transit, or backing
    /// off).
    pub requests_in_flight: u64,
    /// Attempts issued (first tries + retries).
    pub attempts_issued: u64,
    /// Attempts beyond each request's first (the retry storm measure).
    pub attempts_retried: u64,
    /// Attempts rejected at admission by the `Shed` policy (shed
    /// behaviors live in `aqt-workload`).
    pub attempts_shed: u64,
    /// Replies that arrived after their client stopped waiting —
    /// service capacity spent on throw-away work.
    pub completions_wasted: u64,
}

/// A coarse log2-bucketed latency histogram: bucket `i` counts samples
/// in `[2^i, 2^(i+1))` nanoseconds (bucket 0 includes 0 ns; the last
/// bucket absorbs everything ≥ 2^31 ns ≈ 2.1 s). Fixed storage, no
/// deps, O(1) record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; Log2Histogram::BUCKETS],
    count: u64,
    total_ns: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; Log2Histogram::BUCKETS],
            count: 0,
            total_ns: 0,
        }
    }
}

impl Log2Histogram {
    /// Number of buckets (powers of two from 1 ns to ~2.1 s).
    pub const BUCKETS: usize = 32;

    /// Record a sample of `nanos` nanoseconds.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        let b = if nanos == 0 {
            0
        } else {
            (63 - nanos.leading_zeros() as usize).min(Self::BUCKETS - 1)
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(nanos);
    }

    /// Record an elapsed [`Duration`].
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, nanoseconds (saturating).
    pub fn total_nanos(&self) -> u64 {
        self.total_ns
    }

    /// Mean sample, nanoseconds (0.0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The raw buckets; bucket `i` counts samples in `[2^i, 2^(i+1))`
    /// ns.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper bound (exclusive, in ns) of the first bucket at which the
    /// cumulative count reaches quantile `q` of all samples — a coarse
    /// percentile with at most 2x relative error. `None` when empty.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64 << (i + 1).min(63));
            }
        }
        Some(u64::MAX)
    }
}

/// Per-substage latency histograms plus the whole-step and the
/// oracle/sentinel pass timings. Only maintained at
/// [`TelemetryLevel::Timing`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Substep 1 (send), including the active-set `begin_step`.
    pub send: Log2Histogram,
    /// Active-set maintenance + buffer compaction (`begin_step`),
    /// nested inside `send`.
    pub compact: Log2Histogram,
    /// Substep 2a (receive: absorb/forward).
    pub receive: Log2Histogram,
    /// Substep 2b (adversary injections, incl. burst faults).
    pub inject: Log2Histogram,
    /// One oracle pass (model step + due diff), when attached.
    pub oracle: Log2Histogram,
    /// One sentinel check round, when due.
    pub sentinel: Log2Histogram,
    /// The whole step.
    pub step: Log2Histogram,
}

/// One telemetry record. Engine-emitted records borrow the engine's
/// scratch (the per-window crossing deltas) so emission allocates
/// nothing; sinks that outlive the call copy what they keep.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent<'a> {
    /// A run began (emitted when a sink is attached to an engine).
    RunStart {
        /// Engine time at attach.
        time: Time,
        /// Run identity.
        provenance: &'a Provenance,
    },
    /// One closed telemetry window.
    Window {
        /// First step covered (exclusive: the window is
        /// `(start, end]`).
        start: Time,
        /// Last step covered.
        end: Time,
        /// Counter deltas over the window.
        counters: TelemetryCounters,
        /// Per-edge crossings *within this window* (index = edge
        /// index). Summing these across all windows of a run, plus
        /// the final partial window, reproduces the batch
        /// [`crate::Metrics::crossings_per_edge`] totals.
        crossings: &'a [u64],
        /// Run identity.
        provenance: &'a Provenance,
    },
    /// A run finished ([`crate::Engine::finish_telemetry`]).
    RunEnd {
        /// Engine time at finish.
        time: Time,
        /// Counter totals for the whole run.
        counters: TelemetryCounters,
        /// Stage timings (all-zero below [`TelemetryLevel::Timing`]).
        timings: &'a StageTimings,
        /// Run identity.
        provenance: &'a Provenance,
    },
    /// A sweep job began.
    JobStarted {
        /// Input index of the job.
        index: usize,
        /// Total jobs in the sweep.
        total: usize,
    },
    /// A sweep job completed.
    JobFinished {
        /// Input index of the job.
        index: usize,
        /// Wall time of the job.
        secs: f64,
    },
    /// A sweep job panicked or returned an error, and was quarantined.
    JobQuarantined {
        /// Input index of the job.
        index: usize,
    },
    /// Sweep progress plus an ETA estimate (emitted after each job
    /// settles).
    SweepProgress {
        /// Jobs settled (finished or quarantined).
        done: usize,
        /// Total jobs.
        total: usize,
        /// Wall time since the sweep started.
        elapsed_secs: f64,
        /// `elapsed / done * (total - done)` — the remaining-time
        /// estimate.
        eta_secs: f64,
    },
    /// One closed-loop workload window (`aqt-workload`'s goodput
    /// meter): the request ledger's running totals at window close plus
    /// the window's goodput split.
    WorkloadWindow {
        /// First step covered (exclusive: the window is `(start, end]`).
        start: Time,
        /// Last step covered.
        end: Time,
        /// Request-ledger running totals at window close.
        counters: WorkloadCounters,
        /// In-time completions within the window.
        goodput: u64,
        /// Post-abandonment completions within the window.
        wasted: u64,
        /// Attempts admitted to service within the window (offered
        /// load).
        offered: u64,
        /// Run identity.
        provenance: &'a Provenance,
    },
    /// One observatory backlog tick (`crate::observe`): the live
    /// queue-depth state at a fixed cadence, with the
    /// certificate-margin tracker. The borrowed slices are the
    /// observatory's preallocated scratch.
    Backlog {
        /// Engine step of the tick.
        time: Time,
        /// Total packets queued across all edges (live Q(t)).
        total: u64,
        /// Deepest single queue ever seen (running peak).
        max_queue: u64,
        /// Worst buffer wait ever seen (running peak) — the quantity
        /// the certificate bound constrains.
        max_wait: Time,
        /// The certificate's per-buffer wait bound, when the run
        /// carries one.
        bound: Option<u64>,
        /// `bound - max_wait`: positive while the certificate holds,
        /// shrinking toward 0 as a near-miss develops, negative after
        /// a breach. `None` without a bound.
        margin: Option<i64>,
        /// Sparse nonzero queue depths as `(edge index, depth)` pairs.
        /// Empty when the run's edge count exceeds the observatory's
        /// per-edge tracking cap.
        depths: &'a [(u32, u32)],
        /// Run identity.
        provenance: &'a Provenance,
    },
    /// One packet-lifecycle event of a sampled packet
    /// (`crate::observe`'s deterministic 1-in-N span sampling).
    Span {
        /// Engine step of the event.
        time: Time,
        /// Packet id.
        packet: u64,
        /// What happened.
        op: SpanKind,
        /// Edge index: the buffer sent from / enqueued at / absorbed
        /// at, or the edge just crossed for wire-fault events.
        edge: u32,
        /// The packet's hop index at the event.
        hop: u32,
        /// Steps waited: time since arrival for `Send`, end-to-end
        /// latency for `Absorb`, 0 otherwise.
        wait: Time,
        /// Run identity.
        provenance: &'a Provenance,
    },
}

/// What happened to a sampled packet in a [`TelemetryEvent::Span`]
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Admitted into its first buffer.
    Inject,
    /// Popped from a buffer by the send substage.
    Send,
    /// Enqueued at its next buffer by the receive substage.
    Enqueue,
    /// Absorbed at its destination.
    Absorb,
    /// Lost to a wire-fault drop in transit.
    Drop,
    /// A wire-fault duplicate entering the system (the record's
    /// packet id is the clone's).
    Duplicate,
}

impl SpanKind {
    /// The JSONL `op` string.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Inject => "inject",
            SpanKind::Send => "send",
            SpanKind::Enqueue => "enqueue",
            SpanKind::Absorb => "absorb",
            SpanKind::Drop => "drop",
            SpanKind::Duplicate => "dup",
        }
    }
}

impl TelemetryEvent<'_> {
    /// The record's kind tag: the `kind` field of its JSONL form.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::RunStart { .. } => "run_start",
            TelemetryEvent::Window { .. } => "window",
            TelemetryEvent::RunEnd { .. } => "run_end",
            TelemetryEvent::JobStarted { .. } => "job_started",
            TelemetryEvent::JobFinished { .. } => "job_finished",
            TelemetryEvent::JobQuarantined { .. } => "job_quarantined",
            TelemetryEvent::SweepProgress { .. } => "sweep_progress",
            TelemetryEvent::WorkloadWindow { .. } => "workload_window",
            TelemetryEvent::Backlog { .. } => "backlog",
            TelemetryEvent::Span { .. } => "span",
        }
    }

    /// Append this record's JSONL line to `line`: one JSON object,
    /// `{"schema":…,"kind":…` first and a newline last. The one encoder
    /// of the telemetry schema — every field name and the field order
    /// of every record kind live here and in the private helpers below,
    /// and every sink that writes text goes through it. Appends into
    /// the caller's buffer, so a reused buffer makes steady-state
    /// encoding heap-free.
    pub fn write_jsonl(&self, line: &mut String) {
        write!(
            line,
            "{{\"schema\":{TELEMETRY_SCHEMA_VERSION},\"kind\":\"{}\"",
            self.kind()
        )
        .unwrap();
        match self {
            TelemetryEvent::RunStart { time, provenance } => {
                write!(line, ",\"time\":{time}").unwrap();
                provenance_fields(line, provenance);
            }
            TelemetryEvent::Window {
                start,
                end,
                counters,
                crossings,
                provenance,
            } => {
                write!(line, ",\"start\":{start},\"end\":{end}").unwrap();
                counter_fields(line, counters);
                line.push_str(",\"crossings\":[");
                for (i, c) in crossings.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    write!(line, "{c}").unwrap();
                }
                line.push(']');
                provenance_fields(line, provenance);
            }
            TelemetryEvent::RunEnd {
                time,
                counters,
                timings,
                provenance,
            } => {
                write!(line, ",\"time\":{time}").unwrap();
                counter_fields(line, counters);
                timing_fields(line, timings);
                provenance_fields(line, provenance);
            }
            TelemetryEvent::JobStarted { index, total } => {
                write!(line, ",\"index\":{index},\"total\":{total}").unwrap();
            }
            TelemetryEvent::JobFinished { index, secs } => {
                write!(line, ",\"index\":{index},\"secs\":{secs:.3}").unwrap();
            }
            TelemetryEvent::JobQuarantined { index } => {
                write!(line, ",\"index\":{index}").unwrap();
            }
            TelemetryEvent::SweepProgress {
                done,
                total,
                elapsed_secs,
                eta_secs,
            } => {
                write!(
                    line,
                    ",\"done\":{done},\"total\":{total},\
                     \"elapsed_secs\":{elapsed_secs:.3},\"eta_secs\":{eta_secs:.3}"
                )
                .unwrap();
            }
            TelemetryEvent::WorkloadWindow {
                start,
                end,
                counters,
                goodput,
                wasted,
                offered,
                provenance,
            } => {
                write!(line, ",\"start\":{start},\"end\":{end}").unwrap();
                workload_fields(line, counters);
                write!(
                    line,
                    ",\"goodput\":{goodput},\"wasted\":{wasted},\"offered\":{offered}"
                )
                .unwrap();
                provenance_fields(line, provenance);
            }
            TelemetryEvent::Backlog {
                time,
                total,
                max_queue,
                max_wait,
                bound,
                margin,
                depths,
                provenance,
            } => {
                write!(
                    line,
                    ",\"time\":{time},\"total\":{total},\"max_queue\":{max_queue},\
                     \"max_wait\":{max_wait}"
                )
                .unwrap();
                match bound {
                    Some(b) => write!(line, ",\"bound\":{b}").unwrap(),
                    None => line.push_str(",\"bound\":null"),
                }
                match margin {
                    Some(m) => write!(line, ",\"margin\":{m}").unwrap(),
                    None => line.push_str(",\"margin\":null"),
                }
                line.push_str(",\"depths\":[");
                for (i, (e, d)) in depths.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    write!(line, "[{e},{d}]").unwrap();
                }
                line.push(']');
                provenance_fields(line, provenance);
            }
            TelemetryEvent::Span {
                time,
                packet,
                op,
                edge,
                hop,
                wait,
                provenance,
            } => {
                write!(
                    line,
                    ",\"time\":{time},\"packet\":{packet},\"op\":\"{}\",\"edge\":{edge},\
                     \"hop\":{hop},\"wait\":{wait}",
                    op.as_str()
                )
                .unwrap();
                provenance_fields(line, provenance);
            }
        }
        line.push_str("}\n");
    }
}

fn provenance_fields(line: &mut String, p: &Provenance) {
    match p.seed {
        Some(s) => write!(line, ",\"seed\":{s}").unwrap(),
        None => line.push_str(",\"seed\":null"),
    }
    match p.schedule_hash {
        Some(h) => write!(line, ",\"schedule_hash\":{h}").unwrap(),
        None => line.push_str(",\"schedule_hash\":null"),
    }
    line.push_str(",\"protocol\":\"");
    escape_into(line, &p.protocol);
    line.push('"');
    match p.fault_plan_id {
        Some(h) => write!(line, ",\"fault_plan_id\":{h}").unwrap(),
        None => line.push_str(",\"fault_plan_id\":null"),
    }
    match p.model_fingerprint {
        Some(h) => write!(line, ",\"model_fingerprint\":{h}").unwrap(),
        None => line.push_str(",\"model_fingerprint\":null"),
    }
}

fn counter_fields(line: &mut String, c: &TelemetryCounters) {
    write!(
        line,
        ",\"steps\":{},\"packets_sent\":{},\"packets_absorbed\":{},\
         \"packets_injected\":{},\"sentinel_rounds\":{},\"windows_emitted\":{}",
        c.steps,
        c.packets_sent,
        c.packets_absorbed,
        c.packets_injected,
        c.sentinel_rounds,
        c.windows_emitted
    )
    .unwrap();
}

fn workload_fields(line: &mut String, c: &WorkloadCounters) {
    write!(
        line,
        ",\"requests_issued\":{},\"requests_completed\":{},\
         \"requests_abandoned\":{},\"requests_shed\":{},\
         \"requests_in_flight\":{},\"attempts_issued\":{},\
         \"attempts_retried\":{},\"attempts_shed\":{},\
         \"completions_wasted\":{}",
        c.requests_issued,
        c.requests_completed,
        c.requests_abandoned,
        c.requests_shed,
        c.requests_in_flight,
        c.attempts_issued,
        c.attempts_retried,
        c.attempts_shed,
        c.completions_wasted
    )
    .unwrap();
}

fn timing_fields(line: &mut String, t: &StageTimings) {
    line.push_str(",\"timings\":{");
    let stages: [(&str, &Log2Histogram); 7] = [
        ("send", &t.send),
        ("compact", &t.compact),
        ("receive", &t.receive),
        ("inject", &t.inject),
        ("oracle", &t.oracle),
        ("sentinel", &t.sentinel),
        ("step", &t.step),
    ];
    for (i, (name, h)) in stages.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write!(
            line,
            "\"{name}\":{{\"count\":{},\"total_ns\":{},\"mean_ns\":{:.1},\
             \"p50_ns_le\":{},\"p99_ns_le\":{}}}",
            h.count(),
            h.total_nanos(),
            h.mean_nanos(),
            h.quantile_bound(0.50).unwrap_or(0),
            h.quantile_bound(0.99).unwrap_or(0),
        )
        .unwrap();
    }
    line.push('}');
}

/// Minimal JSON string escaping (quotes, backslashes, control chars),
/// appended to `out` so the caller's line buffer is the only storage.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
}

/// A consumer of telemetry records. `Send` so one sink can serve a
/// multi-threaded sweep (through [`SharedSink`]) and so an engine
/// carrying a sink stays movable across threads.
///
/// `record` must not assume the borrowed slices in the event outlive
/// the call.
pub trait TelemetrySink: Send {
    /// Consume one record.
    fn record(&mut self, event: &TelemetryEvent<'_>);

    /// Flush any buffered output (no-op by default).
    fn flush(&mut self) {}
}

// ---------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------

/// Writes one schema-versioned JSON object per record, newline
/// delimited ([`TelemetryEvent::write_jsonl`]). The line buffer is
/// reused across records, so steady-state emission performs no
/// allocation beyond what the underlying writer does.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    line: String,
}

impl JsonlSink {
    /// JSONL to a (buffered) file at `path`, truncating.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::from_writer(std::io::BufWriter::new(f)))
    }

    /// JSONL to an arbitrary writer.
    pub fn from_writer(w: impl Write + Send + 'static) -> Self {
        JsonlSink {
            out: Box::new(w),
            line: String::with_capacity(256),
        }
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        self.line.clear();
        event.write_jsonl(&mut self.line);
        // Telemetry is observability, not state: an I/O error (disk
        // full mid-sweep) must not kill the run it is watching.
        let _ = self.out.write_all(self.line.as_bytes());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

// ---------------------------------------------------------------------
// Ring sink
// ---------------------------------------------------------------------

/// Preallocated in-memory ring of the latest record kinds
/// ([`TelemetryEvent::kind`]): records past the capacity overwrite the
/// oldest. The cheap "last N things that happened" view; full detail
/// goes through [`JsonlSink`]. Steady-state `record` does not allocate
/// (the alloc-regression gate runs with this sink attached).
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<&'static str>,
    cap: usize,
    /// Index of the slot the next record lands in.
    next: usize,
}

impl RingSink {
    /// A ring holding the latest `capacity` record kinds (min 1), fully
    /// preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        RingSink {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
        }
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Held record kinds, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        self.buf[split..]
            .iter()
            .chain(self.buf[..split].iter())
            .copied()
    }
}

impl TelemetrySink for RingSink {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        let kind = event.kind();
        if self.buf.len() < self.cap {
            self.buf.push(kind);
        } else {
            self.buf[self.next] = kind;
        }
        self.next = (self.next + 1) % self.cap;
    }
}

// ---------------------------------------------------------------------
// Shared handle
// ---------------------------------------------------------------------

/// A clonable, thread-safe handle to a sink: the same underlying sink
/// can serve an engine, a sweep harness, and the caller that wants to
/// flush at the end. Locking is per record; engine emission happens at
/// window cadence, so contention is negligible.
#[derive(Clone)]
pub struct SharedSink(Arc<Mutex<Box<dyn TelemetrySink>>>);

impl SharedSink {
    /// Wrap `sink` in a shareable handle.
    pub fn new(sink: impl TelemetrySink + 'static) -> Self {
        SharedSink(Arc::new(Mutex::new(Box::new(sink))))
    }

    /// Record through the shared sink (see [`TelemetrySink::record`]).
    pub fn record(&self, event: &TelemetryEvent<'_>) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(event);
    }

    /// Flush the shared sink.
    pub fn flush(&self) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

impl TelemetrySink for SharedSink {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        SharedSink::record(self, event);
    }

    fn flush(&mut self) {
        SharedSink::flush(self);
    }
}

// ---------------------------------------------------------------------
// The engine-owned state
// ---------------------------------------------------------------------

/// The engine-owned telemetry state: config, counter baseline, timings,
/// window bookkeeping, and the attached sink. Constructed disabled; the
/// per-step cost while disabled is one flag read. The window and
/// timing-sample steps are inputs of the engine's one probe schedule
/// (`probes.rs`), which also arms `timing_this_step`.
pub struct Telemetry {
    level: TelemetryLevel,
    /// Hot flag: *this* step is a timing sample — armed before the
    /// step by the probe schedule and read by the substage methods, so
    /// sampling is decided exactly once per step.
    pub(crate) timing_this_step: bool,
    /// Step of the next timing sample, never behind the next step;
    /// `Time::MAX` when timing is off.
    pub(crate) timing_next: Time,
    /// Counter totals as of `flow_base`: the flow before the last
    /// restore, and the sentinel rounds and windows emitted so far.
    pub(crate) counters: TelemetryCounters,
    /// The engine flow ([`TelemetryCounters::flow`]) at the attach or
    /// the last restore; the flow counters grow from here.
    flow_base: TelemetryCounters,
    /// Stage timing histograms.
    pub(crate) timings: StageTimings,
    /// Run identity stamped on every engine-emitted record.
    pub(crate) provenance: Provenance,
    window: Time,
    window_start: Time,
    counters_at_window_start: TelemetryCounters,
    /// Per-edge crossings at the last window boundary (preallocated).
    crossings_at_window_start: Vec<u64>,
    /// Scratch for per-window crossing deltas (preallocated; window
    /// records borrow it).
    crossings_scratch: Vec<u64>,
    /// Where engine records go (the observatory's too), if anywhere.
    pub(crate) sink: Option<Box<dyn TelemetrySink>>,
}

impl Telemetry {
    /// The disabled state an engine starts with.
    pub(crate) fn disabled() -> Self {
        Telemetry {
            level: TelemetryLevel::Off,
            timing_this_step: false,
            timing_next: Time::MAX,
            counters: TelemetryCounters::default(),
            flow_base: TelemetryCounters::default(),
            timings: StageTimings::default(),
            provenance: Provenance::default(),
            window: 0,
            window_start: 0,
            counters_at_window_start: TelemetryCounters::default(),
            crossings_at_window_start: Vec::new(),
            crossings_scratch: Vec::new(),
            sink: None,
        }
    }

    /// Apply `cfg`, (re)baselining the counters and windows at the
    /// current engine state. All preallocation happens here, so the
    /// step loop stays heap-free.
    pub(crate) fn configure(&mut self, cfg: TelemetryConfig, now: Time, m: &Metrics) {
        self.level = cfg.level;
        self.provenance = cfg.provenance;
        self.window = if cfg.level.counters() { cfg.window } else { 0 };
        self.counters = TelemetryCounters::default();
        self.timings = StageTimings::default();
        self.rebaseline(now, m);
    }

    /// The running counter totals at engine time `now` with metrics
    /// `m` (all zero below [`TelemetryLevel::Counters`]).
    pub(crate) fn totals(&self, now: Time, m: &Metrics) -> TelemetryCounters {
        if !self.level.counters() {
            return TelemetryCounters::default();
        }
        let flow = TelemetryCounters::flow(now, m).delta_since(&self.flow_base);
        self.counters.zip(&flow, u64::saturating_add)
    }

    /// Reset the counter and window baselines to the engine's current
    /// state (also called after snapshot/checkpoint restores, where
    /// the clock and metrics jump).
    pub(crate) fn rebaseline(&mut self, now: Time, m: &Metrics) {
        let crossings = &m.crossings_per_edge;
        self.flow_base = TelemetryCounters::flow(now, m);
        self.window_start = now;
        // First post-(re)baseline step is a timing sample, then every
        // `TIMING_SAMPLE_EVERY`-th.
        self.timing_next = if self.level.timing() {
            now.saturating_add(1)
        } else {
            Time::MAX
        };
        self.counters_at_window_start = self.counters;
        self.crossings_at_window_start.clear();
        self.crossings_at_window_start.extend_from_slice(crossings);
        self.crossings_scratch.clear();
        self.crossings_scratch.resize(crossings.len(), 0);
    }

    /// Step at which the open window closes; `Time::MAX` when windows
    /// are off.
    pub(crate) fn window_end(&self) -> Time {
        match self.window {
            0 => Time::MAX,
            w => self.window_start.saturating_add(w),
        }
    }

    /// Close the window `(window_start, now]` and emit it through the
    /// sink. Heap-free: the crossing deltas land in the preallocated
    /// scratch and the event borrows them.
    #[cold]
    pub(crate) fn emit_window(&mut self, now: Time, m: &Metrics) {
        let crossings = &m.crossings_per_edge;
        debug_assert_eq!(crossings.len(), self.crossings_at_window_start.len());
        // Before the delta: the closing window accounts for its own
        // emission.
        self.counters.windows_emitted += 1;
        for (i, (&total, base)) in crossings
            .iter()
            .zip(self.crossings_at_window_start.iter_mut())
            .enumerate()
        {
            self.crossings_scratch[i] = total.saturating_sub(*base);
            *base = total;
        }
        let totals = self.totals(now, m);
        let delta = totals.delta_since(&self.counters_at_window_start);
        self.counters_at_window_start = totals;
        let start = self.window_start;
        self.window_start = now;
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&TelemetryEvent::Window {
                start,
                end: now,
                counters: delta,
                crossings: &self.crossings_scratch,
                provenance: &self.provenance,
            });
        }
    }

    /// Unless the level is off, emit the final partial window (if any
    /// steps are pending) and a [`TelemetryEvent::RunEnd`]. Then flush
    /// the sink at any level: an observatory-only run's records must
    /// reach the writer when the run closes.
    pub(crate) fn finish(&mut self, now: Time, m: &Metrics) {
        if self.level != TelemetryLevel::Off {
            if self.window > 0 && now > self.window_start {
                self.emit_window(now, m);
            }
            let counters = self.totals(now, m);
            if let Some(sink) = self.sink.as_mut() {
                sink.record(&TelemetryEvent::RunEnd {
                    time: now,
                    counters,
                    timings: &self.timings,
                    provenance: &self.provenance,
                });
            }
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }

    /// The configured level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Stage timing histograms (all empty below
    /// [`TelemetryLevel::Timing`]).
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// The run identity stamped on emitted records.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.level)
            .field("window", &self.window)
            .field("has_sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_histogram_buckets() {
        let mut h = Log2Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        h.record(u64::MAX); // clamped to the last bucket
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[Log2Histogram::BUCKETS - 1], 1);
        // p50 falls in bucket 1 -> upper bound 4 ns
        assert_eq!(h.quantile_bound(0.5), Some(4));
        assert!(h.mean_nanos() > 0.0);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(Log2Histogram::default().quantile_bound(0.5), None);
    }

    #[test]
    fn counters_delta() {
        let a = TelemetryCounters {
            steps: 10,
            packets_sent: 100,
            ..Default::default()
        };
        let mut b = a;
        b.steps = 25;
        b.packets_sent = 170;
        b.sentinel_rounds = 3;
        let d = b.delta_since(&a);
        assert_eq!(d.steps, 15);
        assert_eq!(d.packets_sent, 70);
        assert_eq!(d.sentinel_rounds, 3);
    }

    #[test]
    fn ring_sink_overwrites_oldest() {
        let mut ring = RingSink::with_capacity(3);
        ring.record(&TelemetryEvent::JobStarted { index: 0, total: 2 });
        ring.record(&TelemetryEvent::JobStarted { index: 1, total: 2 });
        ring.record(&TelemetryEvent::JobFinished {
            index: 0,
            secs: 0.5,
        });
        ring.record(&TelemetryEvent::JobQuarantined { index: 1 });
        ring.record(&TelemetryEvent::SweepProgress {
            done: 2,
            total: 2,
            elapsed_secs: 1.0,
            eta_secs: 0.0,
        });
        assert_eq!(ring.len(), 3);
        let kept: Vec<&str> = ring.iter().collect();
        assert_eq!(kept, ["job_finished", "job_quarantined", "sweep_progress"]);
    }

    #[test]
    fn jsonl_lines_are_schema_stamped() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::from_writer(Shared(Arc::clone(&buf)));
        let prov = Provenance {
            seed: Some(7),
            schedule_hash: None,
            protocol: "FIFO".into(),
            fault_plan_id: None,
            model_fingerprint: Some(11),
        };
        sink.record(&TelemetryEvent::RunStart {
            time: 0,
            provenance: &prov,
        });
        sink.record(&TelemetryEvent::Window {
            start: 0,
            end: 8,
            counters: TelemetryCounters::default(),
            crossings: &[1, 2, 3],
            provenance: &prov,
        });
        sink.record(&TelemetryEvent::SweepProgress {
            done: 1,
            total: 4,
            elapsed_secs: 2.0,
            eta_secs: 6.0,
        });
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(l.starts_with("{\"schema\":8,\"kind\":\""), "line: {l}");
            assert!(l.ends_with('}'), "line: {l}");
        }
        assert!(lines[0].contains("\"kind\":\"run_start\""));
        assert!(lines[0].contains("\"seed\":7"));
        assert!(lines[0].contains("\"protocol\":\"FIFO\""));
        assert!(lines[0].contains("\"model_fingerprint\":11"));
        assert!(lines[1].contains("\"crossings\":[1,2,3]"));
        assert!(lines[2].contains("\"eta_secs\":6.000"));
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        let mut out = String::from("x");
        escape_into(&mut out, "a\"b\\c\n");
        assert_eq!(out, "xa\\\"b\\\\c\\u000a");
    }

    #[test]
    fn shared_sink_fans_in_from_clones() {
        struct Kinds(Arc<Mutex<Vec<&'static str>>>);
        impl TelemetrySink for Kinds {
            fn record(&mut self, event: &TelemetryEvent<'_>) {
                self.0.lock().unwrap().push(event.kind());
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let shared = SharedSink::new(Kinds(Arc::clone(&seen)));
        let clone = shared.clone();
        clone.record(&TelemetryEvent::JobStarted { index: 0, total: 1 });
        shared.record(&TelemetryEvent::JobFinished {
            index: 0,
            secs: 0.5,
        });
        assert_eq!(*seen.lock().unwrap(), ["job_started", "job_finished"]);
    }
}
