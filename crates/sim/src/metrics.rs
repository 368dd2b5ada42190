//! Run metrics: the quantities the paper's theorems bound.
//!
//! * **Max queue size** per edge and globally — *stability* means these
//!   stay bounded as time grows (Section 1).
//! * **Max buffer wait** — Theorems 4.1/4.3 bound the number of steps
//!   any packet spends in any single buffer by `⌈wr⌉`.
//! * **Backlog series** — total packets in flight, sampled; the
//!   instability experiments show this diverging.

use aqt_graph::EdgeId;

use crate::packet::Time;

/// A sampled point of the backlog time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BacklogSample {
    /// Sample time (end of that step).
    pub time: Time,
    /// Total packets in the network.
    pub backlog: u64,
    /// Largest single buffer at that moment.
    pub max_queue: u64,
}

/// Metrics collected during a run.
///
/// Mutation is the engine's alone: the fields are crate-private and
/// callers read through the accessor methods, so the engine's update
/// sites are the single source of truth for both this struct and the
/// telemetry counters derived from it.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Per-edge all-time maximum buffer occupancy.
    pub(crate) max_queue_per_edge: Vec<u64>,
    /// Per-edge total packets sent over the link (crossings). The
    /// per-edge *rates* of the paper's Claims 3.8/3.9 are differences
    /// of these counters over an interval.
    pub(crate) crossings_per_edge: Vec<u64>,
    /// All-time maximum number of steps any packet spent in a single
    /// buffer (compare with `⌈wr⌉` from Theorems 4.1/4.3).
    pub(crate) max_buffer_wait: Time,
    /// All-time maximum end-to-end latency (injection to absorption).
    pub(crate) max_latency: Time,
    /// Total packets injected (including initial configuration and
    /// fault bursts).
    pub(crate) injected: u64,
    /// Total packets absorbed at their destinations.
    pub(crate) absorbed: u64,
    /// Packets lost in transit to a drop fault.
    pub(crate) dropped: u64,
    /// Extra packets created by duplication faults.
    pub(crate) duplicated: u64,
    /// Sampled backlog series (empty if sampling is disabled).
    pub(crate) series: Vec<BacklogSample>,
}

impl Metrics {
    pub(crate) fn new(edge_count: usize) -> Self {
        Metrics {
            max_queue_per_edge: vec![0; edge_count],
            crossings_per_edge: vec![0; edge_count],
            max_buffer_wait: 0,
            max_latency: 0,
            injected: 0,
            absorbed: 0,
            dropped: 0,
            duplicated: 0,
            series: Vec::new(),
        }
    }

    /// Packets currently in the network. With faults, the conservation
    /// law is `injected + duplicated = absorbed + dropped + backlog`.
    pub fn backlog(&self) -> u64 {
        self.injected + self.duplicated - self.absorbed - self.dropped
    }

    /// Per-edge all-time maximum buffer occupancy (index = edge index).
    pub fn max_queue_per_edge(&self) -> &[u64] {
        &self.max_queue_per_edge
    }

    /// Per-edge total packets sent over the link (index = edge index).
    /// The per-edge *rates* of Claims 3.8/3.9 are differences of these
    /// counters over an interval — the quantity telemetry window
    /// records report per window.
    pub fn crossings_per_edge(&self) -> &[u64] {
        &self.crossings_per_edge
    }

    /// All-time maximum number of steps any packet spent in a single
    /// buffer (compare with `⌈wr⌉` from Theorems 4.1/4.3).
    pub fn max_buffer_wait(&self) -> Time {
        self.max_buffer_wait
    }

    /// All-time maximum end-to-end latency (injection to absorption).
    pub fn max_latency(&self) -> Time {
        self.max_latency
    }

    /// Total packets injected (including initial configuration and
    /// fault bursts).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total packets absorbed at their destinations.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Packets lost in transit to a drop fault.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Extra packets created by duplication faults.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Sampled backlog series (empty if sampling is disabled).
    pub fn series(&self) -> &[BacklogSample] {
        &self.series
    }

    /// Forget all *peak* statistics (queue peaks, wait/latency peaks)
    /// while keeping the running totals. Experiment E14 calls this at
    /// the end of a fault window so the post-fault peaks — the
    /// quantities Corollaries 4.5/4.6 bound — are measured in
    /// isolation from the fault transient itself.
    pub fn reset_peaks(&mut self) {
        self.max_queue_per_edge.iter_mut().for_each(|q| *q = 0);
        self.max_buffer_wait = 0;
        self.max_latency = 0;
    }

    /// The largest buffer occupancy seen anywhere, at any time.
    pub fn max_queue(&self) -> u64 {
        self.max_queue_per_edge.iter().copied().max().unwrap_or(0)
    }

    #[inline]
    pub(crate) fn on_queue_len(&mut self, edge: EdgeId, len: u64) {
        let slot = &mut self.max_queue_per_edge[edge.index()];
        if len > *slot {
            *slot = len;
        }
    }

    #[inline]
    pub(crate) fn on_send(&mut self, edge: EdgeId, wait: Time) {
        self.crossings_per_edge[edge.index()] += 1;
        if wait > self.max_buffer_wait {
            self.max_buffer_wait = wait;
        }
    }

    /// Total crossings of `edge` so far.
    pub fn crossings(&self, edge: EdgeId) -> u64 {
        self.crossings_per_edge[edge.index()]
    }

    #[inline]
    pub(crate) fn on_absorb(&mut self, latency: Time) {
        self.absorbed += 1;
        if latency > self.max_latency {
            self.max_latency = latency;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_accounting() {
        let mut m = Metrics::new(2);
        m.injected = 10;
        m.on_absorb(3);
        m.on_absorb(7);
        assert_eq!(m.backlog(), 8);
        assert_eq!(m.absorbed, 2);
        assert_eq!(m.max_latency, 7);
    }

    #[test]
    fn queue_peaks() {
        let mut m = Metrics::new(3);
        m.on_queue_len(EdgeId(1), 5);
        m.on_queue_len(EdgeId(1), 3);
        m.on_queue_len(EdgeId(2), 4);
        assert_eq!(m.max_queue(), 5);
        assert_eq!(m.max_queue_per_edge, vec![0, 5, 4]);
    }

    #[test]
    fn conservation_with_faults() {
        let mut m = Metrics::new(1);
        m.injected = 10;
        m.duplicated = 2;
        m.dropped = 3;
        m.on_absorb(1);
        m.on_absorb(1);
        // 10 + 2 = 2 absorbed + 3 dropped + backlog
        assert_eq!(m.backlog(), 7);
    }

    #[test]
    fn reset_peaks_keeps_totals() {
        let mut m = Metrics::new(2);
        m.injected = 4;
        m.on_queue_len(EdgeId(0), 9);
        m.on_send(EdgeId(1), 6);
        m.on_absorb(11);
        m.reset_peaks();
        assert_eq!(m.max_queue(), 0);
        assert_eq!(m.max_buffer_wait, 0);
        assert_eq!(m.max_latency, 0);
        assert_eq!(m.injected, 4);
        assert_eq!(m.absorbed, 1);
        assert_eq!(m.crossings(EdgeId(1)), 1);
    }

    #[test]
    fn wait_peaks_and_crossings() {
        let mut m = Metrics::new(2);
        m.on_send(EdgeId(0), 2);
        m.on_send(EdgeId(0), 9);
        m.on_send(EdgeId(1), 1);
        assert_eq!(m.max_buffer_wait, 9);
        assert_eq!(m.crossings(EdgeId(0)), 2);
        assert_eq!(m.crossings(EdgeId(1)), 1);
    }
}
