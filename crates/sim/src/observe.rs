//! The queue observatory: live backlog series, certificate-margin
//! tracking, and packet-lifecycle span sampling.
//!
//! The paper's stability results are statements about queue-size
//! trajectories — whether backlog stays bounded under a `(w, r)`
//! adversary — but [`crate::Metrics`] only keeps run-level peaks and
//! totals, and the telemetry windows carry scalar counters. This
//! module watches the trajectory itself. Three instruments, all
//! zero-cost when detached (the tick joins the engine's one probe
//! schedule, and each span site reads one flag):
//!
//! * **Backlog recorder** — at a fixed cadence, the total live backlog
//!   Q(t), the deepest-queue and worst-wait running peaks, and the
//!   sparse per-edge queue depths are emitted as `backlog` JSONL
//!   records. The observatory itself keeps only O(1) scalars (the tick
//!   count and the smallest margin), so it never allocates mid-step
//!   however long the run; the in-memory backlog series is
//!   [`crate::Metrics::series`].
//! * **Bound tracker** — when the sentinel carries a
//!   [`crate::CertificateSpec`] with an enforceable bound, every tick
//!   also records `margin = bound − max_wait`: the distance to the
//!   Theorem 4.1/4.3 per-buffer wait bound the sentinel enforces. A
//!   shrinking margin makes a certificate near-miss visible long
//!   before the sentinel raises a Halt.
//! * **Span sampler** — packets whose id satisfies `id & (N−1) == 0`
//!   (a deterministic 1-in-N stratified sample; N is rounded up to a
//!   power of two) emit a lifecycle span:
//!   inject → per-hop send/enqueue → absorb, plus wire-fault
//!   drop/duplicate events, each carrying the edge and the wait in
//!   steps. Spans are collected into a preallocated scratch during
//!   the substeps and flushed through the [`crate::TelemetrySink`] at
//!   the end of each step, in the order the substages produced them.
//!
//! The offline half lives in `examples/observatory.rs`: it re-reads
//! the JSONL stream and emits per-edge backlog percentiles, the margin
//! series, a span waterfall, and a
//! Chrome-trace (`trace_event`) file loadable in Perfetto.

use aqt_graph::EdgeId;

use crate::packet::Time;
use crate::telemetry::SpanKind;

/// Hard cap on spans buffered within one step; excess spans are
/// dropped and counted ([`Observe::spans_dropped`]) rather than grown
/// into — the scratch must never allocate mid-step.
const SPAN_SCRATCH_CAP: usize = 4096;

/// Per-edge depths are captured only when the graph has at most this
/// many edges; larger runs still get the total/peak series (a
/// 120k-edge scan per tick is affordable, but the JSONL depth arrays
/// would not be).
const MAX_TRACKED_EDGES: usize = 4096;

/// Observatory configuration. The default is the "watch a run" shape:
/// a backlog tick every 256 steps and 1-in-64 span sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Steps between backlog ticks (0 is treated as the default 256).
    pub cadence: Time,
    /// Sample one packet in this many for lifecycle spans, rounded up
    /// to a power of two; 0 disables span collection.
    pub span_sample_every: u64,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            cadence: 256,
            span_sample_every: 64,
        }
    }
}

impl ObserveConfig {
    /// This configuration with a backlog tick every `cadence` steps.
    pub fn with_cadence(mut self, cadence: Time) -> Self {
        self.cadence = cadence;
        self
    }

    /// This configuration with 1-in-`every` span sampling (0 = off).
    pub fn with_span_sample_every(mut self, every: u64) -> Self {
        self.span_sample_every = every;
        self
    }
}

/// One buffered packet-lifecycle event, staged in the observatory's
/// scratch until the end-of-step flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Engine step of the event.
    pub time: Time,
    /// What happened.
    pub op: SpanKind,
    /// Packet id.
    pub packet: u64,
    /// Edge index (see [`crate::TelemetryEvent::Span`]).
    pub edge: u32,
    /// The packet's hop index at the event.
    pub hop: u32,
    /// Steps waited (send) / end-to-end latency (absorb) / 0.
    pub wait: Time,
}

/// The engine-owned observatory state. Constructed disabled; all
/// preallocation happens in `Observe::configure`, so the step loop
/// stays heap-free with the observatory attached.
pub struct Observe {
    enabled: bool,
    cadence: Time,
    /// Step of the next backlog tick, `Time::MAX` when detached. One
    /// input of the engine's probe schedule (`probes.rs`).
    pub(crate) next: Time,
    bound: Option<u64>,
    ticks: u64,
    min_margin: Option<i64>,
    /// Sparse nonzero `(edge, depth)` pairs of the current tick
    /// (scratch; `backlog` records borrow it).
    pub(crate) depth_scratch: Vec<(u32, u32)>,
    /// Are per-edge depths being captured? (edge count within the cap)
    pub(crate) track_depths: bool,
    // Span sampling.
    /// Hot gate: spans are being collected this run.
    pub(crate) spans_on: bool,
    /// `id & span_mask == 0` ⇔ the packet is sampled.
    pub(crate) span_mask: u64,
    /// Spans staged during the current step (preallocated; flushed at
    /// end of step).
    pub(crate) span_scratch: Vec<SpanRec>,
    /// Spans flushed to the sink so far.
    pub(crate) spans_emitted: u64,
    spans_dropped: u64,
}

impl Observe {
    /// The detached state an engine starts with.
    pub(crate) fn disabled() -> Self {
        Observe {
            enabled: false,
            cadence: 0,
            next: Time::MAX,
            bound: None,
            ticks: 0,
            min_margin: None,
            depth_scratch: Vec::new(),
            track_depths: false,
            spans_on: false,
            span_mask: 0,
            span_scratch: Vec::new(),
            spans_emitted: 0,
            spans_dropped: 0,
        }
    }

    /// Apply `cfg` against a graph of `edge_count` edges, scheduling
    /// the first tick after `now`. `bound` is the margin-tracker bound
    /// (the sentinel's certificate bound, if any). All preallocation
    /// happens here.
    pub(crate) fn configure(
        &mut self,
        cfg: ObserveConfig,
        now: Time,
        edge_count: usize,
        bound: Option<u64>,
    ) {
        let cadence = if cfg.cadence == 0 { 256 } else { cfg.cadence };
        self.enabled = true;
        self.cadence = cadence;
        self.next = now.saturating_add(cadence);
        self.bound = bound;
        self.ticks = 0;
        self.min_margin = None;
        self.track_depths = edge_count <= MAX_TRACKED_EDGES;
        self.depth_scratch = Vec::with_capacity(if self.track_depths { edge_count } else { 0 });
        self.spans_on = cfg.span_sample_every > 0;
        if self.spans_on {
            self.span_mask = cfg.span_sample_every.next_power_of_two() - 1;
            self.span_scratch = Vec::with_capacity(SPAN_SCRATCH_CAP);
        } else {
            self.span_mask = 0;
            self.span_scratch = Vec::new();
        }
        self.spans_emitted = 0;
        self.spans_dropped = 0;
    }

    /// Is the observatory attached?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Is `id` in the sampled residue class?
    #[inline]
    pub(crate) fn sampled(&self, id: u64) -> bool {
        id & self.span_mask == 0
    }

    /// Stage a lifecycle span for `packet` at `edge` when spans are on
    /// and the packet is in the sampled residue class — the one call
    /// every engine span site makes.
    #[inline]
    pub(crate) fn span(
        &mut self,
        time: Time,
        op: SpanKind,
        packet: u64,
        edge: EdgeId,
        hop: u32,
        wait: Time,
    ) {
        if self.spans_on && self.sampled(packet) {
            self.push_span(SpanRec {
                time,
                op,
                packet,
                edge: edge.index() as u32,
                hop,
                wait,
            });
        }
    }

    /// Stage one span, dropping (and counting) past the scratch cap so
    /// the hot path never allocates.
    #[inline]
    fn push_span(&mut self, rec: SpanRec) {
        if self.span_scratch.len() < SPAN_SCRATCH_CAP {
            self.span_scratch.push(rec);
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Put the next backlog tick one cadence after `now` (a restore
    /// moved the clock). No-op while detached.
    pub(crate) fn restart(&mut self, now: Time) {
        if self.enabled {
            self.next = now.saturating_add(self.cadence);
        }
    }

    /// Count one backlog tick, fold its margin into the minimum and
    /// advance the tick gate. Returns the margin, if a bound is
    /// tracked. The caller (the engine) gathers the inputs and emits
    /// the record.
    pub(crate) fn record_tick(&mut self, now: Time, max_wait: Time) -> Option<i64> {
        let margin = self
            .bound
            .map(|b| (b as i64).saturating_sub(max_wait.min(i64::MAX as u64) as i64));
        if let Some(m) = margin {
            self.min_margin = Some(self.min_margin.map_or(m, |min| min.min(m)));
        }
        self.ticks += 1;
        self.next = now.saturating_add(self.cadence);
        margin
    }

    /// The margin-tracker bound (resolved at attach).
    pub fn bound(&self) -> Option<u64> {
        self.bound
    }

    /// Ticks recorded over the run.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The smallest margin seen across ticks — the run's closest
    /// approach to its certificate bound. `None` without a bound or
    /// before the first tick.
    pub fn min_margin(&self) -> Option<i64> {
        self.min_margin
    }

    /// Spans emitted through the sink so far.
    pub fn spans_emitted(&self) -> u64 {
        self.spans_emitted
    }

    /// Spans dropped to the per-step scratch cap (0 in healthy runs;
    /// nonzero means the sample rate is too dense for the traffic).
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }
}

impl std::fmt::Debug for Observe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observe")
            .field("enabled", &self.enabled)
            .field("cadence", &self.cadence)
            .field("ticks", &self.ticks)
            .field("bound", &self.bound)
            .field("spans_on", &self.spans_on)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured(cfg: ObserveConfig, bound: Option<u64>) -> Observe {
        let mut ob = Observe::disabled();
        ob.configure(cfg, 0, 8, bound);
        ob
    }

    #[test]
    fn disabled_costs_one_gate() {
        let ob = Observe::disabled();
        assert!(!ob.is_enabled());
        assert_eq!(ob.next, Time::MAX);
        assert!(!ob.spans_on);
    }

    #[test]
    fn ticks_record_margins() {
        let mut ob = configured(ObserveConfig::default(), Some(10));
        assert_eq!(ob.record_tick(256, 3), Some(7));
        assert_eq!(ob.record_tick(512, 12), Some(-2));
        assert_eq!(ob.record_tick(768, 5), Some(5));
        assert_eq!(ob.min_margin(), Some(-2));
        assert_eq!(ob.ticks(), 3);
        assert_eq!(ob.next, 768 + 256);
    }

    #[test]
    fn no_bound_means_no_margin() {
        let mut ob = configured(ObserveConfig::default(), None);
        assert_eq!(ob.record_tick(256, 100), None);
        assert_eq!(ob.min_margin(), None);
    }

    #[test]
    fn span_sampling_is_a_power_of_two_residue_class() {
        let mut ob = configured(
            ObserveConfig {
                span_sample_every: 48, // rounds up to 64
                ..Default::default()
            },
            None,
        );
        assert!(ob.spans_on);
        assert_eq!(ob.span_mask, 63);
        let sampled: Vec<u64> = (0..256).filter(|&id| ob.sampled(id)).collect();
        assert_eq!(sampled, [0, 64, 128, 192]);
        ob.push_span(SpanRec {
            time: 1,
            op: SpanKind::Inject,
            packet: sampled[0],
            edge: 0,
            hop: 0,
            wait: 0,
        });
        assert_eq!(ob.span_scratch.len(), 1);
    }

    #[test]
    fn span_scratch_drops_past_cap_without_growing() {
        let mut ob = configured(
            ObserveConfig {
                span_sample_every: 1,
                ..Default::default()
            },
            None,
        );
        let rec = SpanRec {
            time: 0,
            op: SpanKind::Send,
            packet: 0,
            edge: 0,
            hop: 0,
            wait: 0,
        };
        for _ in 0..(SPAN_SCRATCH_CAP + 10) {
            ob.push_span(rec);
        }
        assert_eq!(ob.span_scratch.len(), SPAN_SCRATCH_CAP);
        assert_eq!(ob.span_scratch.capacity(), SPAN_SCRATCH_CAP);
        assert_eq!(ob.spans_dropped(), 10);
    }
}
