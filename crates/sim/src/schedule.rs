//! Precompiled adversary schedules.
//!
//! The paper specifies its adversaries as explicit timed injection
//! plans ("in the time interval `[1, S]`, `rS` packets are injected, at
//! rate `r`, with route …") plus route extensions (Lemma 3.3). A
//! [`Schedule`] is exactly that: a list of timed operations that an
//! [`Engine`] replays. Adversary *builders* (in `aqt-adversary`)
//! compose schedules; the engine's validators then check the result
//! against the model's constraints.
//!
//! ## Time conventions
//!
//! * `Inject { time: t }` — performed in substep 2 of step `t`.
//! * `Extend { time: t }` — performed at the *start* of step `t`
//!   (before substep 1). The paper's "at time τ, extend the routes…"
//!   with injections starting at `τ + 1` is expressed as
//!   `Extend { time: τ + 1 }` followed by injections at `τ + 1, …`.
//! * `Stream { start, rate, .. }` — packet `j` (0-based) is injected in
//!   substep 2 of step `start + ⌈(j+1)/r⌉ − 1`.
//!
//! ## Rate-r streams
//!
//! [`Schedule::inject_stream`] injects "at rate `r`" using the floor
//! pattern: the `k`-th step of the stream injects iff
//! `⌊k·r⌋ > ⌊(k−1)·r⌋`, which puts packet `j` at the stream's step
//! `⌈(j+1)/r⌉`. Over any sub-interval of the stream the injected count
//! is `⌊k₂r⌋ − ⌊k₁r⌋ ≤ ⌈(k₂−k₁)·r⌉`, so a single stream always
//! satisfies the rate-r constraint (the engine still validates the
//! *composition* of streams). Streams need `0 < r ≤ 1`, so each step
//! injects at most one packet of a stream.
//!
//! A whole stream is one [`ScheduleOp::Stream`]: Theorem 3.17's largest
//! Lemma 3.6 stage injects over a million packets, and one op per
//! packet would hold a 64-byte op and a route handle for each of them
//! until the stage is replayed. The op's `segments` list consecutive
//! cohorts with their packet counts, so Lemma 3.15's pad-then-long and
//! Lemma 3.16's mixer-then-fresh streams are one floor pattern too.
//!
//! ## Order within a step
//!
//! A schedule means its *per-packet form*: each stream expanded, in its
//! place, into one `Inject` per packet at that packet's step. Replay
//! performs the per-packet form in stable (time, insertion index)
//! order — every `Extend` due at a step first, then that step's
//! injections by index — and FIFO arrival order depends on it.
//! [`Schedule::replay`] keeps this order without expanding: the live
//! streams sit in index order, each holding its next emission step (a
//! step compares, it does not divide), and their packets are merged by
//! index with the singles and cohorts due at that step. A step with no
//! live stream takes the plain path.
//!
//! Readers of the op list outside replay see the per-packet form:
//! [`Schedule::content_hash`] hashes it (a stream hashes like its
//! expansion) and [`Schedule::per_packet_ops`] yields it for records that slice ops by
//! time, since a stream op spans many steps.

use aqt_graph::{EdgeId, Route};

use crate::engine::{Engine, EngineError, Injection};
use crate::packet::Time;
use crate::protocol::Protocol;
use crate::ratio::Ratio;

/// One adversary operation.
#[derive(Debug, Clone)]
pub enum ScheduleOp {
    /// Inject `inj.count` identical packets (shared route, shared tag)
    /// in substep 2 of step `time`. A cohort (`count > 1`) is the
    /// paper's "`S` packets are injected into `e₀`" burst as one op:
    /// the engine admits the whole batch with one route lookup and one
    /// buffer reservation, and the resulting trajectory is identical to
    /// `count` consecutive single-packet ops at the same step. Storing
    /// the [`Injection`] itself lets replay hand the engine a borrow —
    /// no per-op route clone on the hot path.
    Inject {
        /// Step of injection.
        time: Time,
        /// The packets to inject (route, tag, count).
        inj: Injection,
    },
    /// At the start of step `time`, extend the routes of all packets
    /// queued in `buffers` by `suffix` (Lemma 3.3 rerouting).
    Extend {
        /// Step before whose substep 1 the extension is applied.
        time: Time,
        /// Buffers whose queued packets are extended.
        buffers: Vec<EdgeId>,
        /// Path appended to each packet's route.
        suffix: Vec<EdgeId>,
        /// Only packets whose route ends at this edge are extended
        /// (see [`Engine::extend_routes_in`]).
        last_edge: EdgeId,
    },
    /// A rate-`r` floor-pattern stream: packet `j` (0-based, counted
    /// across all segments) is injected in substep 2 of step
    /// `start + ⌈(j+1)/r⌉ − 1`. Same trajectory as one single-packet
    /// `Inject` per packet at this op's place in the schedule.
    Stream {
        /// Step 1 of the floor pattern.
        start: Time,
        /// The stream's rate, `0 < r ≤ 1`.
        rate: Ratio,
        /// Consecutive cohorts in emission order: `(packets, inj)` sends
        /// `packets` single-packet copies of `inj`.
        segments: Vec<(u64, Injection)>,
    },
}

impl ScheduleOp {
    /// The operation's scheduled time; for a stream, the step of its
    /// first packet.
    pub fn time(&self) -> Time {
        match self {
            ScheduleOp::Inject { time, .. } | ScheduleOp::Extend { time, .. } => *time,
            ScheduleOp::Stream { start, rate, .. } => emission_step(*start, *rate, 0),
        }
    }

    /// The step of the operation's last injection; [`ScheduleOp::time`]
    /// for anything but a stream.
    fn last_time(&self) -> Time {
        match self {
            ScheduleOp::Stream {
                start,
                rate,
                segments,
            } => {
                let packets: u64 = segments.iter().map(|(n, _)| n).sum();
                emission_step(*start, *rate, packets.max(1) - 1)
            }
            op => op.time(),
        }
    }
}

/// Step of packet `j` of a stream: `start + ⌈(j+1)/r⌉ − 1`.
fn emission_step(start: Time, rate: Ratio, j: u64) -> Time {
    start + rate.ceil_div_int(j + 1) - 1
}

/// Panics unless `0 < rate ≤ 1`: a zero rate never emits, and above 1
/// the floor pattern would owe more than one packet per step.
fn assert_stream_rate(rate: Ratio) {
    assert!(
        rate > Ratio::ZERO && rate <= Ratio::ONE,
        "a rate-r stream needs 0 < r <= 1, got r = {rate}"
    );
}

/// A stream's packets in order, as `(step, injection)`. Consecutive
/// steps differ by `⌊1/r⌋` or `⌈1/r⌉`; a remainder picks which, so
/// advancing never divides.
#[derive(Debug)]
struct Emissions<'a> {
    segments: std::slice::Iter<'a, (u64, Injection)>,
    /// The cohort of the next packet; `None` once the stream is done.
    cohort: Option<&'a Injection>,
    /// Packets of `cohort` still to go.
    left: u64,
    /// Step of the next packet, `start + k − 1` for its stream step `k`.
    next: Time,
    /// `k·num − (j+1)·den ∈ [0, num)` for the next packet `j`.
    rem: u64,
    /// `⌊den/num⌋`.
    gap: u64,
    /// `den mod num`.
    extra: u64,
    num: u64,
}

impl<'a> Emissions<'a> {
    /// `rate` is in `(0, 1]`, as [`Schedule::push`] checks.
    fn new(start: Time, rate: Ratio, segments: &'a [(u64, Injection)]) -> Self {
        let mut e = Emissions {
            segments: segments.iter(),
            cohort: None,
            left: 0,
            // Packet −1 at stream step 0 with remainder 0, stored one
            // step late so that `start = 0` stays unsigned; `advance`
            // then finds packet 0, and the extra step is taken back.
            next: start,
            rem: 0,
            gap: rate.den() / rate.num(),
            extra: rate.den() % rate.num(),
            num: rate.num(),
        };
        e.next_cohort();
        e.advance();
        e.next -= 1;
        e
    }

    /// Step of the next packet, if any is left.
    fn peek_step(&self) -> Option<Time> {
        self.cohort.map(|_| self.next)
    }

    fn next_cohort(&mut self) {
        self.cohort = None;
        for (n, inj) in self.segments.by_ref() {
            if *n > 0 {
                self.cohort = Some(inj);
                self.left = *n;
                break;
            }
        }
    }

    fn advance(&mut self) {
        if self.extra > self.rem {
            self.next += self.gap + 1;
            self.rem = self.num - (self.extra - self.rem);
        } else {
            self.next += self.gap;
            self.rem -= self.extra;
        }
    }
}

impl<'a> Iterator for Emissions<'a> {
    type Item = (Time, &'a Injection);

    fn next(&mut self) -> Option<Self::Item> {
        let inj = self.cohort?;
        let step = self.next;
        self.left -= 1;
        if self.left == 0 {
            self.next_cohort();
        }
        if self.cohort.is_some() {
            self.advance();
        }
        Some((step, inj))
    }
}

/// One operation of a schedule's per-packet form, borrowed.
pub(crate) enum PacketOp<'a> {
    /// A single or cohort injection at a step.
    Inject(Time, &'a Injection),
    /// An `Extend` op.
    Extend(&'a ScheduleOp),
}

/// A time-sorted adversary plan.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    ops: Vec<ScheduleOp>,
    sorted: bool,
}

impl Schedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Schedule {
            ops: Vec::new(),
            sorted: true,
        }
    }

    /// Number of operations (a stream is one).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of packets the schedule injects (cohorts and streams count
    /// in full).
    pub fn injection_count(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                ScheduleOp::Inject { inj, .. } => inj.count as usize,
                ScheduleOp::Extend { .. } => 0,
                ScheduleOp::Stream { segments, .. } => {
                    segments.iter().map(|(n, _)| *n as usize).sum()
                }
            })
            .sum()
    }

    /// The latest injection or extension time (0 if empty).
    pub fn horizon(&self) -> Time {
        self.ops
            .iter()
            .map(ScheduleOp::last_time)
            .max()
            .unwrap_or(0)
    }

    /// Push a raw operation.
    ///
    /// # Panics
    /// On a malformed stream: a rate outside `0 < r ≤ 1`, a segment
    /// injection of more than one packet, or no packets at all.
    pub fn push(&mut self, op: ScheduleOp) {
        if let ScheduleOp::Stream { rate, segments, .. } = &op {
            assert_stream_rate(*rate);
            assert!(
                segments.iter().all(|(_, inj)| inj.count == 1),
                "a stream segment injects single packets; its count says how many"
            );
            assert!(
                segments.iter().any(|(n, _)| *n > 0),
                "a stream must inject at least one packet"
            );
        }
        if let Some(last) = self.ops.last() {
            if op.time() < last.time() {
                self.sorted = false;
            }
        }
        self.ops.push(op);
    }

    /// Inject one packet at `time`.
    pub fn inject_at(&mut self, time: Time, route: Route, tag: u32) {
        self.push(ScheduleOp::Inject {
            time,
            inj: Injection::new(route, tag),
        });
    }

    /// Inject `count` identical packets at `time` as one cohort op.
    pub fn inject_cohort_at(&mut self, time: Time, route: Route, tag: u32, count: u32) {
        self.push(ScheduleOp::Inject {
            time,
            inj: Injection::cohort(route, tag, count),
        });
    }

    /// Schedule a route extension at the start of step `time`,
    /// restricted to packets whose route currently ends at `last_edge`.
    pub fn extend_ending_at(
        &mut self,
        time: Time,
        buffers: Vec<EdgeId>,
        suffix: Vec<EdgeId>,
        last_edge: EdgeId,
    ) {
        self.push(ScheduleOp::Extend {
            time,
            buffers,
            suffix,
            last_edge,
        });
    }

    /// Inject packets with `route` "at rate `r`" during the steps
    /// `[start, start + duration - 1]` using the floor pattern, as one
    /// stream op; returns the number of packets scheduled
    /// (= `⌊duration · r⌋`).
    ///
    /// # Panics
    /// Unless `0 < r ≤ 1`.
    pub fn inject_stream(
        &mut self,
        start: Time,
        duration: u64,
        rate: Ratio,
        route: &Route,
        tag: u32,
    ) -> u64 {
        assert_stream_rate(rate);
        let count = rate.floor_mul(duration);
        self.inject_count(start, count, rate, route, tag);
        count
    }

    /// Inject exactly `count` packets at rate `r` starting at `start`
    /// (the stream simply stops once `count` packets are out — the
    /// paper's "X packets are injected in the first X·(1/r) time steps
    /// of the interval…"). Returns the time of the last injection, or
    /// `start - 1` if `count == 0`.
    ///
    /// # Panics
    /// Unless `0 < r ≤ 1`.
    pub fn inject_count(
        &mut self,
        start: Time,
        count: u64,
        rate: Ratio,
        route: &Route,
        tag: u32,
    ) -> Time {
        self.inject_segments(
            start,
            rate,
            vec![(count, Injection::new(route.clone(), tag))],
        )
    }

    /// One rate-`r` stream from `start` whose cohort changes at packet
    /// index boundaries: `(n, inj)` sends the next `n` packets as copies
    /// of the single-packet `inj`. Lemma 3.15 uses this shape ("the
    /// first `n` packets have path of length 1, and the rest have the
    /// path `a, f_1, …, f_n, a'`"); Lemma 3.16's two back-to-back
    /// streams on `a_2` are likewise one stream. Returns the time of the
    /// last injection, or `start - 1` if there is none.
    ///
    /// # Panics
    /// Unless `0 < r ≤ 1`, or if an `inj` is not a single packet.
    pub fn inject_segments(
        &mut self,
        start: Time,
        rate: Ratio,
        mut segments: Vec<(u64, Injection)>,
    ) -> Time {
        assert_stream_rate(rate);
        segments.retain(|(n, _)| *n > 0);
        if segments.is_empty() {
            return start.saturating_sub(1);
        }
        let op = ScheduleOp::Stream {
            start,
            rate,
            segments,
        };
        let last = op.last_time();
        self.push(op);
        last
    }

    /// Iterate operations (unsorted, insertion order).
    pub fn ops(&self) -> &[ScheduleOp] {
        &self.ops
    }

    /// The per-packet form, borrowed, in insertion order: each stream
    /// yields one injection per packet at its step.
    pub(crate) fn packet_ops(&self) -> impl Iterator<Item = PacketOp<'_>> {
        self.ops.iter().flat_map(|op| {
            let (one, stream) = match op {
                ScheduleOp::Inject { time, inj } => (Some(PacketOp::Inject(*time, inj)), None),
                ScheduleOp::Extend { .. } => (Some(PacketOp::Extend(op)), None),
                ScheduleOp::Stream {
                    start,
                    rate,
                    segments,
                } => (None, Some(Emissions::new(*start, *rate, segments))),
            };
            one.into_iter().chain(
                stream
                    .into_iter()
                    .flatten()
                    .map(|(time, inj)| PacketOp::Inject(time, inj)),
            )
        })
    }

    /// The per-packet form (see the module docs) in insertion order:
    /// each stream becomes one single-packet `Inject` per packet, the
    /// other ops are cloned. For records that slice ops by time.
    pub fn per_packet_ops(&self) -> impl Iterator<Item = ScheduleOp> + '_ {
        self.packet_ops().map(|op| match op {
            PacketOp::Inject(time, inj) => ScheduleOp::Inject {
                time,
                inj: inj.clone(),
            },
            PacketOp::Extend(op) => op.clone(),
        })
    }

    /// Content hash of the schedule (FNV-1a over every operation's
    /// time, kind, route/suffix edges, tag, and count, in insertion
    /// order, streams expanded to their packets). Two schedules built
    /// the same way hash the same on every platform; the hash is the
    /// `schedule_hash` a telemetry [`crate::telemetry::Provenance`]
    /// carries, joining JSONL records to the schedule that drove the
    /// run.
    pub fn content_hash(&self) -> u64 {
        crate::routes::fnv1a_u64s(self.packet_ops().flat_map(|op| {
            // A 4-word header, then the route's edges (an injection) or
            // the buffers and then the suffix (an extension).
            let (head, edges, more): ([u64; 4], &[EdgeId], &[EdgeId]) = match op {
                PacketOp::Inject(time, inj) => (
                    [1, time, u64::from(inj.tag), u64::from(inj.count)],
                    inj.route.edges(),
                    &[],
                ),
                PacketOp::Extend(ScheduleOp::Extend {
                    time,
                    buffers,
                    suffix,
                    last_edge,
                }) => (
                    [2, *time, u64::from(last_edge.0), buffers.len() as u64],
                    buffers,
                    suffix,
                ),
                PacketOp::Extend(_) => unreachable!("packet_ops wraps only Extend ops"),
            };
            head.into_iter()
                .chain(edges.iter().chain(more).map(|e| u64::from(e.0)))
        }))
    }

    /// Replay this schedule on `engine` from the engine's current time
    /// through `until` (inclusive). Operations scheduled at or before
    /// the engine's current time cause an error (they can never fire).
    /// The schedule is borrowed, so one schedule can drive many engines
    /// (the campaign shrinker re-runs a candidate dozens of times). A
    /// stable time-sorted *index* order is computed per call; the
    /// operations themselves are never moved. Injections within a step
    /// follow the per-packet form's (time, insertion index) order (see
    /// the module docs).
    pub fn replay<P: Protocol>(
        &self,
        engine: &mut Engine<P>,
        until: Time,
    ) -> Result<(), EngineError> {
        // Singles, cohorts and extensions stable by time: simultaneous
        // operations keep insertion order (`Extend` at time `t` is
        // applied before injections at `t` regardless, by the loop
        // below). Streams stable by their first packet's step.
        let mut order: Vec<u32> = Vec::with_capacity(self.ops.len());
        let mut streams: Vec<(u32, Emissions<'_>)> = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                ScheduleOp::Stream {
                    start,
                    rate,
                    segments,
                } => streams.push((i as u32, Emissions::new(*start, *rate, segments))),
                _ => order.push(i as u32),
            }
        }
        if !self.sorted {
            order.sort_by_key(|&i| self.ops[i as usize].time());
            streams.sort_by_key(|(_, stream)| stream.peek_step());
        }
        let start = engine.time();
        let first = order
            .first()
            .map(|&i| self.ops[i as usize].time())
            .into_iter()
            .chain(streams.first().and_then(|(_, stream)| stream.peek_step()))
            .min();
        if let Some(t0) = first {
            if t0 <= start {
                return Err(EngineError::Usage(format!(
                    "schedule op at time {t0} but engine already at {start}"
                )));
            }
        }
        let mut idx = 0usize;
        // Borrows of the ops' stored `Injection`s — the hot replay loop
        // hands the engine references, so no route `Arc` is cloned (or
        // dropped) per operation. `due` holds the singles and cohorts of
        // the step with their op indices, `merged` the step's injections
        // in index order when streams are live.
        let mut due: Vec<(u32, &Injection)> = Vec::new();
        let mut merged: Vec<&Injection> = Vec::new();
        let mut pending = streams.into_iter().peekable();
        let mut live: Vec<(u32, Emissions<'_>)> = Vec::with_capacity(pending.len());
        for t in (start + 1)..=until {
            // Streams whose first packet is due join the live set in
            // index order.
            while let Some(joining) = pending.next_if(|(_, stream)| stream.peek_step() == Some(t)) {
                let at = live.partition_point(|(j, _)| *j < joining.0);
                live.insert(at, joining);
            }
            // Extensions scheduled at the start of step t.
            while idx < order.len() && self.ops[order[idx] as usize].time() == t {
                let i = order[idx];
                match &self.ops[i as usize] {
                    ScheduleOp::Extend {
                        buffers,
                        suffix,
                        last_edge,
                        ..
                    } => {
                        engine.extend_routes_in(buffers, suffix, *last_edge)?;
                    }
                    ScheduleOp::Inject { inj, .. } => due.push((i, inj)),
                    ScheduleOp::Stream { .. } => unreachable!("order holds no streams"),
                }
                idx += 1;
            }
            if live.is_empty() {
                engine.step(due.drain(..).map(|(_, inj)| inj))?;
                continue;
            }
            let mut finished = false;
            let mut singles = due.drain(..).peekable();
            for (i, stream) in &mut live {
                if stream.peek_step() != Some(t) {
                    continue;
                }
                while let Some((_, inj)) = singles.next_if(|(j, _)| j < i) {
                    merged.push(inj);
                }
                let (_, inj) = stream.next().expect("a live stream has a next packet");
                merged.push(inj);
                finished |= stream.peek_step().is_none();
            }
            merged.extend(singles.map(|(_, inj)| inj));
            engine.step(merged.drain(..))?;
            if finished {
                live.retain(|(_, stream)| stream.peek_step().is_some());
            }
        }
        let left = order
            .get(idx)
            .map(|&i| self.ops[i as usize].time())
            .into_iter()
            .chain(pending.peek().and_then(|(_, stream)| stream.peek_step()))
            .chain(live.iter().filter_map(|(_, stream)| stream.peek_step()))
            .min();
        if let Some(next) = left {
            return Err(EngineError::Usage(format!(
                "schedule extends past the requested horizon: next op at {next}, ran until {until}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::packet::Packet;
    use aqt_graph::{topologies, Graph};
    use std::collections::VecDeque;
    use std::sync::Arc;

    struct Fifo;
    impl Protocol for Fifo {
        fn name(&self) -> &str {
            "FIFO"
        }
        fn select(&mut self, _: Time, _: EdgeId, _: &VecDeque<Packet>, _: &Graph) -> usize {
            0
        }
        fn is_historic(&self) -> bool {
            true
        }
    }

    #[test]
    fn stream_injects_floor_r_times_duration() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut s = Schedule::new();
        let n = s.inject_stream(1, 100, Ratio::new(3, 5), &route, 0);
        assert_eq!(n, 60);
        assert_eq!(s.injection_count(), 60);
        assert!(s.horizon() <= 100);
    }

    #[test]
    fn stream_satisfies_rate_validator() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let r = Ratio::new(7, 10);
        let mut s = Schedule::new();
        s.inject_stream(5, 200, r, &route, 0);
        let mut eng = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: Some(crate::rate::AdversaryModelSpec::rate(r)),
                ..Default::default()
            },
        );
        s.replay(&mut eng, 250).expect("stream must be rate-legal");
    }

    /// The floor pattern as a per-step credit loop: the times of `count`
    /// packets of a rate-`r` stream from `start`.
    fn credit_loop_times(start: Time, count: u64, r: Ratio) -> Vec<Time> {
        let mut times = Vec::new();
        let mut k = 0;
        while (times.len() as u64) < count {
            k += 1;
            if r.floor_mul(k) > times.len() as u64 {
                times.push(start + k - 1);
            }
        }
        times
    }

    #[test]
    fn stream_is_one_op_on_the_credit_loop_steps() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        for (num, den) in [(1, 1), (1, 2), (3, 5), (2, 3), (7, 10), (1, 7)] {
            let r = Ratio::new(num, den);
            let mut s = Schedule::new();
            let n = s.inject_stream(4, 50, r, &route, 0);
            assert_eq!(s.len(), 1, "a stream is one op");
            let times: Vec<Time> = s.per_packet_ops().map(|op| op.time()).collect();
            assert_eq!(times, credit_loop_times(4, n, r), "r = {r}");
            assert_eq!(s.ops()[0].time(), times[0]);
            assert_eq!(s.horizon(), *times.last().unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "0 < r <= 1")]
    fn inject_count_rejects_a_zero_rate() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        Schedule::new().inject_count(1, 5, Ratio::ZERO, &route, 0);
    }

    #[test]
    #[should_panic(expected = "0 < r <= 1")]
    fn inject_stream_rejects_a_rate_above_one() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        Schedule::new().inject_stream(1, 10, Ratio::new(3, 2), &route, 0);
    }

    #[test]
    #[should_panic(expected = "0 < r <= 1")]
    fn inject_segments_rejects_a_zero_rate_even_when_empty() {
        Schedule::new().inject_segments(1, Ratio::ZERO, Vec::new());
    }

    #[test]
    fn inject_count_stops_at_count() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut s = Schedule::new();
        let last = s.inject_count(10, 7, Ratio::new(1, 2), &route, 0);
        assert_eq!(s.injection_count(), 7);
        // 7 packets at rate 1/2 need 14 steps: last at 10+14-1
        assert_eq!(last, 23);
    }

    #[test]
    fn replay_applies_extension_before_injections() {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route0 = Route::new(&g, vec![edges[0]]).unwrap();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        eng.seed(route0, 0).unwrap();
        let mut s = Schedule::new();
        s.push(ScheduleOp::Extend {
            time: 1,
            buffers: vec![edges[0]],
            suffix: vec![edges[1]],
            last_edge: edges[0],
        });
        s.replay(&mut eng, 3).unwrap();
        // the seeded packet crossed e0 at step 1 *with the extension*
        // already applied, so it was forwarded to e1 and absorbed at 2.
        assert_eq!(eng.metrics().absorbed, 1);
        assert_eq!(eng.metrics().max_latency, 2);
    }

    #[test]
    fn replay_rejects_past_ops() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        eng.run_quiet(5).unwrap();
        let mut s = Schedule::new();
        s.inject_at(3, route.clone(), 0);
        assert!(matches!(s.replay(&mut eng, 10), Err(EngineError::Usage(_))));
        // A stream whose first packet is at step 5 (start 4, r = 1/2)
        // is as late as the engine's time, so it can never fire either.
        let mut s = Schedule::new();
        s.inject_count(4, 3, Ratio::new(1, 2), &route, 0);
        assert_eq!(s.ops()[0].time(), 5);
        assert!(matches!(s.replay(&mut eng, 10), Err(EngineError::Usage(_))));
        assert_eq!(eng.time(), 5, "a rejected schedule runs no step");
    }

    #[test]
    fn replay_rejects_truncated_horizon() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        let mut s = Schedule::new();
        s.inject_at(9, route.clone(), 0);
        assert!(matches!(s.replay(&mut eng, 5), Err(EngineError::Usage(_))));
        // A stream live at the horizon with packets still to go: the
        // packets at steps 2, 4, 6, 8 do not all fit in [1, 5].
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        let mut s = Schedule::new();
        s.inject_count(1, 4, Ratio::new(1, 2), &route, 0);
        assert_eq!(s.horizon(), 8);
        let err = s.replay(&mut eng, 5).unwrap_err();
        assert!(
            matches!(&err, EngineError::Usage(m) if m.contains("next op at 6")),
            "{err}"
        );
        // Up to its last packet, the same stream replays cleanly.
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        s.replay(&mut eng, 8).unwrap();
        assert_eq!(eng.metrics().injected(), 4);
    }

    #[test]
    fn cohort_op_replays_identically_to_singletons() {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route = Route::new(&g, edges).unwrap();

        let mut singles = Schedule::new();
        for _ in 0..5 {
            singles.inject_at(2, route.clone(), 7);
        }
        let mut cohort = Schedule::new();
        cohort.inject_cohort_at(2, route.clone(), 7, 5);
        assert_eq!(singles.injection_count(), cohort.injection_count());

        let mut a = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        singles.replay(&mut a, 10).unwrap();
        let mut b = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        cohort.replay(&mut b, 10).unwrap();
        assert_eq!(
            crate::snapshot::capture(&a),
            crate::snapshot::capture(&b),
            "cohort replay must be state-identical to singleton replay"
        );
        assert_eq!(a.metrics().absorbed, b.metrics().absorbed);
    }

    /// Golden value: [`Schedule::content_hash`] is a cross-platform,
    /// cross-refactor stable content id — the `schedule_hash` of every
    /// telemetry provenance line and half of the campaign corpus dedup
    /// key. If this test fails, the hash changed: archived JSONL lines
    /// and stored campaign fingerprints stop joining. Change it only
    /// deliberately, updating this constant in the same commit.
    #[test]
    fn content_hash_is_pinned() {
        let g = topologies::line(3);
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let full = Route::new(&g, edges.clone()).unwrap();
        let tail = Route::new(&g, edges[1..].to_vec()).unwrap();
        let mut s = Schedule::new();
        s.inject_at(3, full, 7);
        s.inject_cohort_at(5, tail, 9, 4);
        s.extend_ending_at(6, vec![edges[0], edges[1]], vec![edges[2]], edges[2]);
        assert_eq!(s.content_hash(), 0xBF3B_EACE_70E2_AAAF);
        // And the empty schedule (FNV-1a offset basis, no words).
        assert_eq!(Schedule::new().content_hash(), 0xCBF2_9CE4_8422_2325);
    }

    #[test]
    fn replay_by_reference_matches_run_and_handles_unsorted_ops() {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route = Route::new(&g, edges.clone()).unwrap();
        let short = Route::new(&g, vec![edges[0]]).unwrap();
        // Deliberately out of insertion order.
        let mut s = Schedule::new();
        s.inject_at(4, route.clone(), 1);
        s.inject_cohort_at(2, short, 0, 3);
        let mut by_ref = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        s.replay(&mut by_ref, 8).unwrap();
        // The schedule is untouched and replays again identically.
        assert_eq!(s.len(), 2);
        let mut again = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        s.replay(&mut again, 8).unwrap();
        assert_eq!(
            crate::snapshot::capture(&by_ref),
            crate::snapshot::capture(&again)
        );
    }
}
