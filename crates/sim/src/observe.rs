//! The queue observatory: live backlog series, certificate-margin
//! tracking, and packet-lifecycle span sampling.
//!
//! The paper's stability results are statements about queue-size
//! trajectories — whether backlog stays bounded under a `(w, r)`
//! adversary — but [`crate::Metrics`] only keeps run-level peaks and
//! totals, and the telemetry windows carry scalar counters. This
//! module watches the trajectory itself. Three instruments, all
//! zero-cost when detached (the step loop pays one integer compare and
//! one branch):
//!
//! * **Backlog recorder** — at a fixed cadence, the total live backlog
//!   Q(t), the deepest-queue and worst-wait running peaks, and the
//!   sparse per-edge queue depths are captured into a preallocated
//!   columnar store and emitted as `backlog` JSONL records. When the
//!   store fills, it compacts in place (every other tick is dropped
//!   and the cadence doubles), so an arbitrarily long run fits a fixed
//!   memory budget and never allocates mid-step.
//! * **Bound tracker** — when the run carries a
//!   [`crate::CertificateSpec`] (or an explicit bound), every tick
//!   also records `margin = bound − max_wait`: the distance to the
//!   Theorem 4.1/4.3 per-buffer wait bound the sentinel enforces. A
//!   shrinking margin makes a certificate near-miss visible long
//!   before the sentinel raises a Halt.
//! * **Span sampler** — packets whose id satisfies
//!   `id & (N−1) == seed & (N−1)` (a deterministic 1-in-N stratified
//!   sample; N is rounded up to a power of two) emit a lifecycle span:
//!   inject → per-hop send/enqueue → absorb, plus wire-fault
//!   drop/duplicate events, each carrying the edge, the wait in steps,
//!   and the acting shard. The id predicate is shard-independent and
//!   trajectories are bit-identical across shard counts, so the same
//!   packets are sampled whatever the partition. Spans are collected
//!   into a preallocated scratch during the substeps and flushed
//!   through the [`crate::TelemetrySink`] at the end of each step.
//!
//! The offline half lives in `examples/observatory.rs`: it re-reads
//! the JSONL stream and emits per-edge backlog percentiles, the margin
//! series, a shard imbalance ratio, a span waterfall, and a
//! Chrome-trace (`trace_event`) file loadable in Perfetto.

use crate::packet::Time;
use crate::telemetry::SpanKind;

/// Hard cap on spans buffered within one step; excess spans are
/// dropped and counted ([`Observe::spans_dropped`]) rather than grown
/// into — the scratch must never allocate mid-step.
const SPAN_SCRATCH_CAP: usize = 4096;

/// Observatory configuration. The default is the "watch a run" shape:
/// a backlog tick every 256 steps, 1-in-64 span sampling, per-edge
/// depths tracked up to 4096 edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Steps between backlog ticks (0 is treated as the default 256).
    /// Doubles each time the in-memory store compacts.
    pub cadence: Time,
    /// Ticks the in-memory columnar store holds before compacting in
    /// place (minimum 16).
    pub capacity: usize,
    /// Sample one packet in this many for lifecycle spans, rounded up
    /// to a power of two; 0 disables span collection.
    pub span_sample_every: u64,
    /// Seed choosing *which* residue class of packet ids is sampled.
    pub span_seed: u64,
    /// Per-edge depth columns are captured only when the graph has at
    /// most this many edges; larger runs still get the total/peak
    /// series (a 120k-edge scan per tick is affordable, but the JSONL
    /// depth arrays would not be).
    pub max_tracked_edges: usize,
    /// Explicit certificate bound for the margin tracker. When `None`,
    /// [`crate::Engine::attach_observatory`] fills it from the
    /// sentinel's [`crate::CertificateSpec`] if one is attached.
    pub bound: Option<u64>,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            cadence: 256,
            capacity: 4096,
            span_sample_every: 64,
            span_seed: 0,
            max_tracked_edges: 4096,
            bound: None,
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

    /// This configuration with span-sampling seed `seed`.
    pub fn with_span_seed(mut self, seed: u64) -> Self {
        self.span_seed = seed;
        self
    }

    /// This configuration with an explicit margin-tracker bound.
    pub fn with_bound(mut self, bound: u64) -> Self {
        self.bound = Some(bound);
        self
    }
}

/// One buffered packet-lifecycle event, staged in the observatory's
/// scratch (or a shard's span log) until the end-of-step flush.
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
    /// Shard owning the acting edge (0 when sequential).
    pub shard: u32,
}

/// The engine-owned observatory state. Constructed disabled; all
/// preallocation happens in `Observe::configure`, so the step loop
/// stays heap-free with the observatory attached.
pub struct Observe {
    enabled: bool,
    cadence: Time,
    /// Hot gate: step of the next backlog tick, `Time::MAX` when
    /// detached — the per-step cost of a detached observatory is this
    /// one compare.
    pub(crate) next: Time,
    bound: Option<u64>,
    capacity: usize,
    ticks: u64,
    // Columnar tick store (parallel vectors, one entry per kept tick).
    times: Vec<Time>,
    totals: Vec<u64>,
    max_queues: Vec<u64>,
    max_waits: Vec<Time>,
    margins: Vec<i64>,
    /// Sparse nonzero `(edge, depth)` pairs of the current tick
    /// (scratch; `backlog` records borrow it).
    pub(crate) depth_scratch: Vec<(u32, u32)>,
    /// Are per-edge depths being captured? (edge count within the cap)
    pub(crate) track_depths: bool,
    // Span sampling.
    /// Hot gate: spans are being collected this run.
    pub(crate) spans_on: bool,
    /// `id & span_mask == span_residue` ⇔ the packet is sampled.
    pub(crate) span_mask: u64,
    /// See [`Observe::span_mask`].
    pub(crate) span_residue: u64,
    /// Spans staged during the current step (preallocated; flushed at
    /// end of step).
    pub(crate) span_scratch: Vec<SpanRec>,
    spans_emitted: u64,
    spans_dropped: u64,
    /// Cumulative packets sent per shard (index = shard id), carried
    /// on every `backlog` record; empty on unsharded runs.
    pub(crate) shard_sent: Vec<u64>,
}

impl Observe {
    /// The detached state an engine starts with.
    pub(crate) fn disabled() -> Self {
        Observe {
            enabled: false,
            cadence: 0,
            next: Time::MAX,
            bound: None,
            capacity: 0,
            ticks: 0,
            times: Vec::new(),
            totals: Vec::new(),
            max_queues: Vec::new(),
            max_waits: Vec::new(),
            margins: Vec::new(),
            depth_scratch: Vec::new(),
            track_depths: false,
            spans_on: false,
            span_mask: 0,
            span_residue: 0,
            span_scratch: Vec::new(),
            spans_emitted: 0,
            spans_dropped: 0,
            shard_sent: Vec::new(),
        }
    }

    /// Apply `cfg` against a graph of `edge_count` edges, scheduling
    /// the first tick after `now`. `bound` is the already-resolved
    /// margin-tracker bound and `shard_count` sizes the per-shard sent
    /// accumulator (1 when unsharded). All preallocation happens here.
    pub(crate) fn configure(
        &mut self,
        cfg: ObserveConfig,
        now: Time,
        edge_count: usize,
        shard_count: usize,
        bound: Option<u64>,
    ) {
        let cadence = if cfg.cadence == 0 { 256 } else { cfg.cadence };
        let capacity = cfg.capacity.max(16);
        self.enabled = true;
        self.cadence = cadence;
        self.next = now.saturating_add(cadence);
        self.bound = bound;
        self.capacity = capacity;
        self.ticks = 0;
        self.times = Vec::with_capacity(capacity);
        self.totals = Vec::with_capacity(capacity);
        self.max_queues = Vec::with_capacity(capacity);
        self.max_waits = Vec::with_capacity(capacity);
        self.margins = Vec::with_capacity(capacity);
        self.track_depths = edge_count <= cfg.max_tracked_edges;
        self.depth_scratch = Vec::with_capacity(if self.track_depths { edge_count } else { 0 });
        self.spans_on = cfg.span_sample_every > 0;
        if self.spans_on {
            let n = cfg.span_sample_every.next_power_of_two();
            self.span_mask = n - 1;
            self.span_residue = cfg.span_seed & self.span_mask;
            self.span_scratch = Vec::with_capacity(SPAN_SCRATCH_CAP);
        } else {
            self.span_mask = 0;
            self.span_residue = 0;
            self.span_scratch = Vec::new();
        }
        self.spans_emitted = 0;
        self.spans_dropped = 0;
        self.shard_sent = vec![0; if shard_count > 1 { shard_count } else { 0 }];
    }

    /// Resize the per-shard sent accumulator when shards are attached
    /// or detached after the observatory (totals restart from zero —
    /// the series stays interpretable because the partition change is
    /// the natural origin for an imbalance measurement).
    pub(crate) fn reshard(&mut self, shard_count: usize) {
        if !self.enabled {
            return;
        }
        self.shard_sent.clear();
        self.shard_sent
            .resize(if shard_count > 1 { shard_count } else { 0 }, 0);
    }

    /// Is the observatory attached?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Is `id` in the sampled residue class?
    #[inline]
    pub(crate) fn sampled(&self, id: u64) -> bool {
        id & self.span_mask == self.span_residue
    }

    /// Stage one span, dropping (and counting) past the scratch cap so
    /// the hot path never allocates.
    #[inline]
    pub(crate) fn push_span(&mut self, rec: SpanRec) {
        if self.span_scratch.len() < SPAN_SCRATCH_CAP {
            self.span_scratch.push(rec);
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Note `n` spans flushed to the sink (bookkeeping for
    /// [`Observe::spans_emitted`]).
    pub(crate) fn note_flushed(&mut self, n: u64) {
        self.spans_emitted += n;
    }

    /// Record one backlog tick into the columnar store and advance the
    /// tick gate. Returns the margin, if a bound is tracked. The
    /// caller (the engine) gathers the inputs and emits the record.
    pub(crate) fn record_tick(
        &mut self,
        now: Time,
        total: u64,
        max_queue: u64,
        max_wait: Time,
    ) -> Option<i64> {
        if self.times.len() == self.capacity {
            self.compact();
        }
        let margin = self
            .bound
            .map(|b| (b as i64).saturating_sub(max_wait.min(i64::MAX as u64) as i64));
        self.times.push(now);
        self.totals.push(total);
        self.max_queues.push(max_queue);
        self.max_waits.push(max_wait);
        self.margins.push(margin.unwrap_or(0));
        self.ticks += 1;
        self.next = now.saturating_add(self.cadence);
        margin
    }

    /// Halve the store in place (keep every other tick) and double the
    /// cadence. No allocation; O(capacity) moves.
    fn compact(&mut self) {
        let n = self.times.len();
        let mut k = 0;
        for i in (0..n).step_by(2) {
            self.times[k] = self.times[i];
            self.totals[k] = self.totals[i];
            self.max_queues[k] = self.max_queues[i];
            self.max_waits[k] = self.max_waits[i];
            self.margins[k] = self.margins[i];
            k += 1;
        }
        self.times.truncate(k);
        self.totals.truncate(k);
        self.max_queues.truncate(k);
        self.max_waits.truncate(k);
        self.margins.truncate(k);
        self.cadence = self.cadence.saturating_mul(2);
    }

    /// The margin-tracker bound (resolved at attach).
    pub fn bound(&self) -> Option<u64> {
        self.bound
    }

    /// Current steps between ticks (doubles on each compaction).
    pub fn cadence(&self) -> Time {
        self.cadence
    }

    /// Ticks recorded over the run (including compacted-away ones).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Tick times currently held, ascending.
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// Total live backlog per held tick (parallel to
    /// [`Observe::times`]).
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Deepest-queue running peak per held tick.
    pub fn max_queues(&self) -> &[u64] {
        &self.max_queues
    }

    /// Worst-wait running peak per held tick.
    pub fn max_waits(&self) -> &[Time] {
        &self.max_waits
    }

    /// `bound − max_wait` per held tick (all zero without a bound; see
    /// [`Observe::bound`]).
    pub fn margins(&self) -> &[i64] {
        &self.margins
    }

    /// The smallest margin seen across held ticks — the run's closest
    /// approach to its certificate bound. `None` without a bound or
    /// before the first tick.
    pub fn min_margin(&self) -> Option<i64> {
        self.bound?;
        self.margins.iter().copied().min()
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

    /// Cumulative packets sent per shard (empty on unsharded runs).
    pub fn shard_sent(&self) -> &[u64] {
        &self.shard_sent
    }

    /// `max/mean` of [`Observe::shard_sent`] — 1.0 is a perfectly
    /// balanced partition. `None` when unsharded or before any send.
    pub fn shard_imbalance(&self) -> Option<f64> {
        let total: u64 = self.shard_sent.iter().sum();
        if self.shard_sent.is_empty() || total == 0 {
            return None;
        }
        let max = *self.shard_sent.iter().max().unwrap() as f64;
        let mean = total as f64 / self.shard_sent.len() as f64;
        Some(max / mean)
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

    fn configured(cfg: ObserveConfig) -> Observe {
        let mut ob = Observe::disabled();
        let bound = cfg.bound;
        ob.configure(cfg, 0, 8, 1, bound);
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
    fn tick_store_records_and_margins() {
        let mut ob = configured(ObserveConfig::default().with_bound(10));
        assert_eq!(ob.record_tick(256, 40, 7, 3), Some(7));
        assert_eq!(ob.record_tick(512, 55, 9, 12), Some(-2));
        assert_eq!(ob.times(), &[256, 512]);
        assert_eq!(ob.totals(), &[40, 55]);
        assert_eq!(ob.margins(), &[7, -2]);
        assert_eq!(ob.min_margin(), Some(-2));
        assert_eq!(ob.ticks(), 2);
        assert_eq!(ob.next, 512 + 256);
    }

    #[test]
    fn no_bound_means_no_margin() {
        let mut ob = configured(ObserveConfig::default());
        assert_eq!(ob.record_tick(256, 1, 1, 100), None);
        assert_eq!(ob.min_margin(), None);
    }

    #[test]
    fn store_compacts_in_place_and_doubles_cadence() {
        let mut ob = configured(ObserveConfig {
            cadence: 1,
            capacity: 16,
            ..Default::default()
        });
        let base_cap = ob.times.capacity();
        for t in 1..=40u64 {
            ob.record_tick(t, t, 0, 0);
        }
        // Never grew past the preallocated capacity.
        assert_eq!(ob.times.capacity(), base_cap);
        assert!(ob.times().len() <= 16);
        assert_eq!(ob.ticks(), 40);
        assert!(ob.cadence() > 1);
        // Ascending, gap-doubled but intact series.
        assert!(ob.times().windows(2).all(|w| w[0] < w[1]));
        for (t, q) in ob.times().iter().zip(ob.totals()) {
            assert_eq!(t, q);
        }
    }

    #[test]
    fn span_sampling_is_a_power_of_two_residue_class() {
        let mut ob = configured(ObserveConfig {
            span_sample_every: 48, // rounds up to 64
            span_seed: 0x2a,
            ..Default::default()
        });
        assert!(ob.spans_on);
        assert_eq!(ob.span_mask, 63);
        assert_eq!(ob.span_residue, 0x2a & 63);
        let sampled: Vec<u64> = (0..256).filter(|&id| ob.sampled(id)).collect();
        assert_eq!(sampled.len(), 4); // 256 / 64
        assert!(sampled.windows(2).all(|w| w[1] - w[0] == 64));
        ob.push_span(SpanRec {
            time: 1,
            op: SpanKind::Inject,
            packet: sampled[0],
            edge: 0,
            hop: 0,
            wait: 0,
            shard: 0,
        });
        assert_eq!(ob.span_scratch.len(), 1);
    }

    #[test]
    fn span_scratch_drops_past_cap_without_growing() {
        let mut ob = configured(ObserveConfig {
            span_sample_every: 1,
            ..Default::default()
        });
        let rec = SpanRec {
            time: 0,
            op: SpanKind::Send,
            packet: 0,
            edge: 0,
            hop: 0,
            wait: 0,
            shard: 0,
        };
        for _ in 0..(SPAN_SCRATCH_CAP + 10) {
            ob.push_span(rec);
        }
        assert_eq!(ob.span_scratch.len(), SPAN_SCRATCH_CAP);
        assert_eq!(ob.span_scratch.capacity(), SPAN_SCRATCH_CAP);
        assert_eq!(ob.spans_dropped(), 10);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let mut ob = Observe::disabled();
        ob.configure(ObserveConfig::default(), 0, 8, 4, None);
        assert_eq!(ob.shard_imbalance(), None);
        ob.shard_sent.copy_from_slice(&[10, 10, 10, 30]);
        assert_eq!(ob.shard_imbalance(), Some(2.0));
        ob.reshard(1);
        assert!(ob.shard_sent().is_empty());
    }
}
