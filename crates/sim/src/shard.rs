//! The sharded deterministic engine: in-run parallelism over edge
//! shards with bit-identical trajectories.
//!
//! `crate::parallel` parallelizes *across* runs; this module
//! parallelizes *inside* one. The graph's edges are partitioned into
//! disjoint shards ([`ShardPlan`], heuristics in
//! `aqt_graph::partition`); each shard owns its edges' buffers and, on
//! every step, runs the compact + send substage over them concurrently
//! with the other shards. Packets that cross an edge are either
//! absorbed on the spot (a packet on its last edge never needs another
//! shard) or deposited in a per-(source, destination)-shard outbox.
//! A barrier separates send from receive; the receive phase then runs
//! concurrently too, each shard draining the outbox column addressed
//! to it.
//!
//! # Why the trajectories are bit-identical
//!
//! The sequential engine's only cross-buffer coupling is the arrival
//! order at each destination buffer, and the model fixes it: transit
//! arrivals enqueue in **ascending order of the edge they crossed**
//! (then injections, which stay sequential). Each edge sends at most
//! one packet per step, so within a step the crossed edge is a unique
//! key per in-flight packet. The receive phase therefore restores the
//! sequential order exactly by sorting each shard's merged inbox by
//! crossed edge — the *canonical merge order* — regardless of how many
//! shards there are or which shard crossed which edge first in wall
//! time. Everything else either commutes (per-edge counters, max
//! reductions) or is sorted into the sequential order the same way
//! (the absorption log). The sharded-equivalence proptests and the
//! lockstep oracle pin this contract; [`ShardStamp`] carries the
//! partition into checkpoints so resume identity holds.
//!
//! The sharded fast path covers fault-free steps only: wire faults
//! assign duplicate packet ids from a shared counter in delivery
//! order, which is inherently sequential. On fault-active steps the
//! engine falls back to the sequential staged pipeline over the merged
//! active set — same trajectory, no parallelism for that step.
//!
//! # Concurrency discipline
//!
//! No locks are held during a phase. Each phase partitions every piece
//! of mutable state by shard — per-edge buffer slots and counter
//! elements (owned by the edge's shard in send, by the destination's
//! shard in receive), per-shard outbox rows/columns, per-shard stats —
//! and the worker pool's phase barrier (a mutex + condvar handshake)
//! orders the send-phase writes before the receive-phase reads. The
//! raw-pointer views ([`crate::buffer`]'s `ShardedBuffers`, the
//! `SharedMut` wrappers here) exist so each thread forms `&mut` only
//! to the slots its shard owns; the safety argument is local to each
//! use site.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use aqt_graph::{partition, Graph};

use crate::buffer::{BufferStore, ShardedBuffers};
use crate::engine::Absorption;
use crate::metrics::Metrics;
use crate::observe::SpanRec;
use crate::packet::{Packet, Time};
use crate::protocol::Discipline;
use crate::routes::{fnv1a_u64s, RouteId, RouteTable};
use crate::telemetry::{Log2Histogram, SpanKind};

/// An edge-partition for the sharded engine: `shard_of[e]` names the
/// shard owning edge index `e`, with `count` shards in total. Any
/// partition yields the same trajectory (see the module docs); the
/// choice only affects speed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    count: u32,
    shard_of: Vec<u32>,
}

impl ShardPlan {
    /// A plan from an explicit assignment. Fails when an entry names a
    /// shard `>= count` or `count` is 0.
    pub fn new(shard_of: Vec<u32>, count: u32) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if let Some(&bad) = shard_of.iter().find(|&&s| s >= count) {
            return Err(format!("assignment names shard {bad} of {count}"));
        }
        Ok(ShardPlan { count, shard_of })
    }

    /// The trivial single-shard plan (sequential stepping).
    pub fn sequential(edge_count: usize) -> Self {
        ShardPlan {
            count: 1,
            shard_of: vec![0; edge_count],
        }
    }

    /// Balanced contiguous blocks (`aqt_graph::partition::contiguous`).
    pub fn contiguous(edge_count: usize, shards: usize) -> Self {
        ShardPlan {
            count: shards.max(1) as u32,
            shard_of: partition::contiguous(edge_count, shards),
        }
    }

    /// Round-robin striping (`aqt_graph::partition::striped`).
    pub fn striped(edge_count: usize, shards: usize) -> Self {
        ShardPlan {
            count: shards.max(1) as u32,
            shard_of: partition::striped(edge_count, shards),
        }
    }

    /// The topology-aware heuristic (`aqt_graph::partition::auto`):
    /// contiguous for chain-like graphs, striped for meshes.
    pub fn auto(graph: &Graph, shards: usize) -> Self {
        ShardPlan {
            count: shards.max(1) as u32,
            shard_of: partition::auto(graph, shards),
        }
    }

    /// Number of shards.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The assignment, indexed by edge index.
    pub fn shard_of(&self) -> &[u32] {
        &self.shard_of
    }

    /// Content fingerprint of the partition (FNV-1a over count and
    /// assignment). Single-shard plans fingerprint to 0 so every
    /// sequential engine — whatever the edge count — carries the one
    /// [`ShardStamp::SEQUENTIAL`] stamp.
    pub fn fingerprint(&self) -> u64 {
        if self.count <= 1 {
            return 0;
        }
        fnv1a_u64s(
            std::iter::once(u64::from(self.count))
                .chain(self.shard_of.iter().map(|&s| u64::from(s))),
        )
    }

    /// The checkpoint stamp for this plan.
    pub fn stamp(&self) -> ShardStamp {
        ShardStamp {
            count: self.count,
            fingerprint: self.fingerprint(),
        }
    }
}

/// The identity of an engine's shard configuration, carried by
/// checkpoints: resuming under a different partition is refused
/// (fail-closed), because although trajectories are
/// partition-independent, the refusal keeps "same checkpoint, same
/// configuration, same machine behaviour" an exact statement rather
/// than an argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStamp {
    /// Number of shards (1 = sequential).
    pub count: u32,
    /// [`ShardPlan::fingerprint`] of the assignment (0 when `count` is
    /// 1).
    pub fingerprint: u64,
}

impl ShardStamp {
    /// The stamp of every unsharded engine.
    pub const SEQUENTIAL: ShardStamp = ShardStamp {
        count: 1,
        fingerprint: 0,
    };
}

/// A packet crossing a shard boundary: forwarded during send, enqueued
/// at `dest` during receive, ordered by `crossed` (the canonical merge
/// key — unique within a step, see the module docs).
#[derive(Debug, Clone, Copy)]
struct ShardMsg {
    /// Edge index the packet just crossed.
    crossed: u32,
    /// Edge index of its next buffer.
    dest: u32,
    packet: Packet,
}

/// A `*mut T` base pointer that may be shared across the phase
/// closures. Safety is argued at each use site: every dereference
/// `.add(i)` touches only indices the acting shard owns for the
/// current phase.
#[derive(Clone, Copy)]
struct SharedMut<T>(*mut T);

unsafe impl<T> Send for SharedMut<T> {}
unsafe impl<T> Sync for SharedMut<T> {}

/// Per-shard tallies for one step, merged after the barrier. Each
/// entry is written only by its own shard (send phase writes
/// everything but `forwarded`; receive phase adds `forwarded`).
#[derive(Debug, Default)]
struct ShardStats {
    sent: u64,
    compacted: u64,
    absorbed: u64,
    forwarded: u64,
    /// Merged packets gathered from *other* shards' outboxes (receive
    /// phase) — the partition's communication volume.
    cross_in: u64,
    /// This shard's own phase work in nanoseconds (send + receive),
    /// self-timed only on timing-sampled steps.
    work_ns: u64,
    max_wait: Time,
    max_latency: Time,
    /// `(crossed edge, absorption)` pairs, merged across shards in
    /// crossed-edge order to reproduce the sequential log order.
    absorptions: Vec<(u32, Absorption)>,
    /// Observatory spans captured by this shard, keyed by the crossed
    /// edge for the same canonical cross-shard merge order.
    spans: Vec<(u32, SpanRec)>,
    /// First contract violation seen by this shard (fails the step).
    error: Option<String>,
}

impl ShardStats {
    fn reset(&mut self) {
        let absorptions = std::mem::take(&mut self.absorptions);
        let spans = std::mem::take(&mut self.spans);
        *self = ShardStats {
            absorptions,
            spans,
            ..ShardStats::default()
        };
        self.absorptions.clear();
        self.spans.clear();
    }
}

/// Merged step totals handed back to the engine for its telemetry
/// counters. `sent` counts every crossing (so `sent = forwarded +
/// absorbed` on a fault-free step, matching the sequential
/// `in_transit`/`delivered` accounting).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StepTotals {
    pub sent: u64,
    pub forwarded: u64,
    pub absorbed: u64,
    pub compacted: u64,
    /// Packets that crossed a shard boundary this step (see
    /// [`crate::TelemetryCounters::shard_msgs_merged`]).
    pub msgs_merged: u64,
    /// Nanoseconds the caller (shard 0) spent blocked on the phase
    /// barrier, both phases combined (0 when not measured).
    pub barrier_ns: u64,
}

/// Everything a phase closure needs, shared by `&` across the pool.
/// The raw base pointers are disjointly indexed by shard (see each
/// phase); the references are genuinely shared and read-only.
struct StepCtx<'a> {
    t: Time,
    shard_count: usize,
    discipline: Discipline,
    record_absorptions: bool,
    /// Workers self-time their phases into `ShardStats::work_ns`
    /// (timing-sampled steps only).
    timed: bool,
    /// Observatory span filter: `Some((mask, residue))` when packets
    /// with `id & mask == residue` should emit lifecycle spans.
    span_filter: Option<(u64, u64)>,
    view: ShardedBuffers,
    routes: &'a RouteTable,
    shard_of: &'a [u32],
    /// `shard_count²` outboxes, row-major: `outboxes[s*S + d]` holds
    /// shard `s`'s packets destined for shard `d`. Send: shard `s`
    /// writes row `s`. Receive: shard `d` reads column `d` (ordered
    /// after all writes by the phase barrier).
    outboxes: SharedMut<Vec<ShardMsg>>,
    /// Per-shard merge scratch (receive phase, disjoint by shard).
    merge: SharedMut<Vec<ShardMsg>>,
    /// Per-shard tallies (disjoint by shard in both phases).
    stats: SharedMut<ShardStats>,
    /// `Metrics::crossings_per_edge` base; element `e` is written only
    /// by `shard_of[e]`, during send.
    crossings: SharedMut<u64>,
    /// `Metrics::max_queue_per_edge` base; element `e` is written only
    /// by `shard_of[e]`, during receive.
    max_queue: SharedMut<u64>,
}

unsafe impl Sync for StepCtx<'_> {}

/// Send phase for shard `s`: compact the shard's active list, pop one
/// packet per nonempty owned edge through the discipline fast path,
/// absorb last-edge packets, outbox the rest.
fn run_send(ctx: &StepCtx<'_>, s: usize) {
    let phase_t0 = ctx.timed.then(std::time::Instant::now);
    let stats = unsafe { &mut *ctx.stats.0.add(s) };
    stats.reset();
    let sx = s * ctx.shard_count;
    for d in 0..ctx.shard_count {
        unsafe { (*ctx.outboxes.0.add(sx + d)).clear() };
    }
    // Safety (whole phase): this thread is the only driver of shard
    // `s`, and every edge below comes from shard `s`'s active list, so
    // all buffer slots and `crossings` elements touched are owned.
    stats.compacted = unsafe { ctx.view.begin_step(s) } as u64;
    let t = ctx.t;
    // One-entry route memo, as in the sequential receive: cohorts
    // dominate, so the common case skips the table index.
    let mut memo_id = RouteId::INVALID;
    let mut memo: &[aqt_graph::EdgeId] = &[];
    let n = unsafe { ctx.view.active_count(s) };
    for k in 0..n {
        let ei = unsafe { ctx.view.active_edge(s, k) };
        let idx = {
            let q: &VecDeque<Packet> = unsafe { ctx.view.queue(s, ei) };
            match ctx.discipline.index_in(q) {
                Some(i) => i,
                None => {
                    // set_shards rejects Custom disciplines; reaching
                    // this is an engine bug, not a protocol error.
                    stats.error = Some("sharded send reached a Custom discipline".into());
                    return;
                }
            }
        };
        let mut p = match unsafe { ctx.view.remove(s, ei, idx) } {
            Some(p) => p,
            None => {
                stats.error = Some(format!(
                    "protocol selected out-of-range index {idx} at edge {ei}"
                ));
                return;
            }
        };
        unsafe { *ctx.crossings.0.add(ei) += 1 };
        let wait = t - p.arrived_at;
        if wait > stats.max_wait {
            stats.max_wait = wait;
        }
        stats.sent += 1;
        let span_sampled = match ctx.span_filter {
            Some((mask, residue)) => p.id.0 & mask == residue,
            None => false,
        };
        if span_sampled {
            stats.spans.push((
                ei as u32,
                SpanRec {
                    time: t,
                    op: SpanKind::Send,
                    packet: p.id.0,
                    edge: ei as u32,
                    hop: p.hop,
                    wait,
                    shard: s as u32,
                },
            ));
        }
        if p.on_last_edge() {
            // Mirror of the sequential receive path, including the
            // demo-corruption fault the sentinel demo hunts.
            #[cfg(feature = "demo-corruption")]
            if p.id.0 % 977 == 5 {
                continue;
            }
            let latency = t - p.injected_at;
            stats.absorbed += 1;
            if latency > stats.max_latency {
                stats.max_latency = latency;
            }
            if span_sampled {
                stats.spans.push((
                    ei as u32,
                    SpanRec {
                        time: t,
                        op: SpanKind::Absorb,
                        packet: p.id.0,
                        edge: ei as u32,
                        hop: p.hop,
                        wait: latency,
                        shard: s as u32,
                    },
                ));
            }
            if ctx.record_absorptions {
                stats.absorptions.push((
                    ei as u32,
                    Absorption {
                        tag: p.tag,
                        injected_at: p.injected_at,
                        absorbed_at: t,
                    },
                ));
            }
        } else {
            p.hop += 1;
            p.arrived_at = t;
            if p.route != memo_id {
                memo_id = p.route;
                memo = ctx.routes.get(p.route);
            }
            let dest = memo[p.hop as usize].index();
            let d = ctx.shard_of[dest] as usize;
            let outbox = unsafe { &mut *ctx.outboxes.0.add(sx + d) };
            outbox.push(ShardMsg {
                crossed: ei as u32,
                dest: dest as u32,
                packet: p,
            });
        }
    }
    if let Some(t0) = phase_t0 {
        stats.work_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Receive phase for shard `d`: gather outbox column `d`, sort by
/// crossed edge (the canonical merge order), enqueue at the owned
/// destination buffers.
fn run_recv(ctx: &StepCtx<'_>, d: usize) {
    let phase_t0 = ctx.timed.then(std::time::Instant::now);
    let stats = unsafe { &mut *ctx.stats.0.add(d) };
    let merge = unsafe { &mut *ctx.merge.0.add(d) };
    merge.clear();
    for s in 0..ctx.shard_count {
        // Safety: read-only view of row entries written during send;
        // the phase barrier ordered those writes before this read.
        let outbox = unsafe { &*ctx.outboxes.0.add(s * ctx.shard_count + d) };
        merge.extend_from_slice(outbox);
        if s != d {
            stats.cross_in += outbox.len() as u64;
        }
    }
    // Unique keys (one send per edge per step), so unstable sort is
    // deterministic and reproduces the sequential arrival order.
    merge.sort_unstable_by_key(|m| m.crossed);
    for m in merge.iter() {
        let dest = m.dest as usize;
        // Safety: `shard_of[dest] == d` by construction of the outbox
        // column, so the buffer slot and `max_queue` element are owned.
        let len = unsafe { ctx.view.push_back(d, dest, m.packet) } as u64;
        let slot = unsafe { &mut *ctx.max_queue.0.add(dest) };
        if len > *slot {
            *slot = len;
        }
        if let Some((mask, residue)) = ctx.span_filter {
            if m.packet.id.0 & mask == residue {
                stats.spans.push((
                    m.crossed,
                    SpanRec {
                        time: ctx.t,
                        op: SpanKind::Enqueue,
                        packet: m.packet.id.0,
                        edge: m.dest,
                        hop: m.packet.hop,
                        wait: 0,
                        shard: d as u32,
                    },
                ));
            }
        }
    }
    stats.forwarded += merge.len() as u64;
    if let Some(t0) = phase_t0 {
        stats.work_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// The type-erased phase task a [`ShardPool`] dispatches: a borrowed
/// `Fn(shard_index)` whose borrow `ShardPool::run` keeps alive until
/// every worker has finished (the pointer never outlives the call).
#[derive(Clone, Copy)]
struct Task(*const (dyn Fn(usize) + Sync));

unsafe impl Send for Task {}

struct PoolState {
    /// Bumped per dispatched phase; workers run one task per epoch.
    epoch: u64,
    task: Option<Task>,
    /// Workers still running the current epoch's task.
    remaining: usize,
    /// A worker's task panicked this epoch.
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers: new epoch or shutdown.
    work: Condvar,
    /// Signals the caller: `remaining` reached 0.
    done: Condvar,
}

/// A persistent pool of `shards - 1` phase workers. The calling thread
/// participates as shard 0, so a 2-shard engine uses exactly 2 threads.
/// Workers live as long as the engine's `ShardRuntime` (spawning
/// threads per step would dwarf a microsecond-scale step); they block
/// on a condvar between phases.
struct ShardPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// A pool driving shards `1..shards`; shard 0 is the caller's.
    fn new(shards: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                task: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aqt-shard-{shard}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool { shared, workers }
    }

    /// Run `f(shard)` once per shard, the caller executing shard 0,
    /// and return when every shard has finished — the phase barrier.
    /// With `measure_barrier`, returns the nanoseconds the caller
    /// spent blocked waiting for the other shards after finishing its
    /// own work (0 otherwise) — the straggler signal behind
    /// [`crate::TelemetryCounters::shard_barrier_ns`].
    ///
    /// # Panics
    /// Propagates a panic from any worker's `f` (after all workers
    /// have finished the phase, so no state is concurrently touched).
    fn run(&self, f: &(dyn Fn(usize) + Sync), measure_barrier: bool) -> u64 {
        // Erase the borrow: the pointer is dropped from the shared
        // state before this call returns, and the wait below ensures
        // no worker still holds it.
        let task = Task(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                f as *const _,
            )
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert_eq!(st.remaining, 0, "phase dispatched while one is running");
            st.task = Some(task);
            st.epoch += 1;
            st.remaining = self.workers.len();
            st.panicked = false;
            drop(st);
            self.shared.work.notify_all();
        }
        f(0);
        let wait_t0 = measure_barrier.then(std::time::Instant::now);
        let mut st = self.shared.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.task = None;
        if st.panicked {
            drop(st);
            panic!("a shard worker panicked during a sharded step");
        }
        wait_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64)
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, shard: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.task.expect("epoch bumped without a task");
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        // Safety: `ShardPool::run` keeps the closure alive until
        // `remaining` drops to 0, which happens strictly after this
        // call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(shard) }));
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// The engine's sharded-stepping state: the plan, the worker pool, and
/// the per-step scratch (outboxes, merge buffers, tallies), all reused
/// across steps so a steady-state sharded step allocates nothing.
pub(crate) struct ShardRuntime {
    plan: ShardPlan,
    pool: ShardPool,
    outboxes: Vec<Vec<ShardMsg>>,
    merge: Vec<Vec<ShardMsg>>,
    stats: Vec<ShardStats>,
    /// Scratch for merging the per-shard observatory span logs into
    /// canonical crossed-edge order (reused across steps).
    span_merge: Vec<(u32, SpanRec)>,
}

impl ShardRuntime {
    /// Build the runtime (spawns `plan.count() - 1` worker threads).
    /// `plan.count()` must be at least 2 — the engine keeps 1-shard
    /// configurations on the sequential path.
    pub(crate) fn new(plan: ShardPlan) -> Self {
        let s = plan.count() as usize;
        debug_assert!(s >= 2);
        ShardRuntime {
            plan,
            pool: ShardPool::new(s),
            outboxes: (0..s * s).map(|_| Vec::new()).collect(),
            merge: (0..s).map(|_| Vec::new()).collect(),
            stats: (0..s).map(|_| ShardStats::default()).collect(),
            span_merge: Vec::new(),
        }
    }

    pub(crate) fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// One fault-free send + receive, parallel over the shards, with
    /// the deterministic barrier in between. Updates `metrics`
    /// (crossings, queue peaks, wait/latency peaks, absorbed) and the
    /// absorption log exactly as the sequential substeps would; the
    /// returned totals feed the engine's telemetry counters. On `Err`
    /// (a protocol contract violation) the engine state is unspecified,
    /// matching the sequential error contract. `timings` receives the
    /// (send, receive) phase durations when the engine sampled this
    /// step, and `shard_work` — when given alongside — collects one
    /// per-shard work sample per phase pair. `measure_barrier` turns on
    /// the caller-side barrier-wait clock (Counters-level telemetry);
    /// `span_filter` is the observatory's `(mask, residue)` packet
    /// sampling predicate.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_step(
        &mut self,
        t: Time,
        buffers: &mut BufferStore,
        routes: &RouteTable,
        discipline: Discipline,
        metrics: &mut Metrics,
        record_absorptions: bool,
        absorptions: &mut Vec<Absorption>,
        timings: Option<&mut (std::time::Duration, std::time::Duration)>,
        measure_barrier: bool,
        span_filter: Option<(u64, u64)>,
        shard_work: Option<&mut Log2Histogram>,
    ) -> Result<StepTotals, String> {
        let shard_count = self.plan.count() as usize;
        let timed = timings.is_some();
        let ctx = StepCtx {
            t,
            shard_count,
            discipline,
            record_absorptions,
            timed,
            span_filter,
            view: buffers.sharded_view(),
            routes,
            shard_of: self.plan.shard_of(),
            outboxes: SharedMut(self.outboxes.as_mut_ptr()),
            merge: SharedMut(self.merge.as_mut_ptr()),
            stats: SharedMut(self.stats.as_mut_ptr()),
            crossings: SharedMut(metrics.crossings_per_edge.as_mut_ptr()),
            max_queue: SharedMut(metrics.max_queue_per_edge.as_mut_ptr()),
        };
        let send_t0 = timed.then(std::time::Instant::now);
        let mut barrier_ns = self.pool.run(&|s| run_send(&ctx, s), measure_barrier);
        let recv_t0 = timed.then(std::time::Instant::now);
        barrier_ns += self.pool.run(&|d| run_recv(&ctx, d), measure_barrier);
        if let (Some(out), Some(s0), Some(r0)) = (timings, send_t0, recv_t0) {
            out.1 = r0.elapsed();
            out.0 = r0.duration_since(s0);
        }

        let mut totals = StepTotals {
            barrier_ns,
            ..StepTotals::default()
        };
        for st in &mut self.stats {
            if let Some(e) = st.error.take() {
                return Err(e);
            }
            totals.sent += st.sent;
            totals.forwarded += st.forwarded;
            totals.absorbed += st.absorbed;
            totals.compacted += st.compacted;
            totals.msgs_merged += st.cross_in;
            if st.max_wait > metrics.max_buffer_wait {
                metrics.max_buffer_wait = st.max_wait;
            }
            if st.max_latency > metrics.max_latency {
                metrics.max_latency = st.max_latency;
            }
        }
        if let Some(hist) = shard_work {
            for st in &self.stats {
                hist.record(st.work_ns);
            }
        }
        metrics.absorbed += totals.absorbed;
        if record_absorptions && self.stats.iter().any(|s| !s.absorptions.is_empty()) {
            // Merge the per-shard logs into the sequential (delivered)
            // order: ascending crossed edge, unique within the step.
            let start = absorptions.len();
            let mut tagged: Vec<(u32, Absorption)> = self
                .stats
                .iter_mut()
                .flat_map(|s| s.absorptions.drain(..))
                .collect();
            tagged.sort_unstable_by_key(|(crossed, _)| *crossed);
            absorptions.extend(tagged.into_iter().map(|(_, a)| a));
            debug_assert!(absorptions.len() - start == totals.absorbed as usize);
        }
        Ok(totals)
    }

    /// Drain the per-shard observatory span logs of the last step into
    /// `out`, merged in canonical ascending-crossed-edge order (stable,
    /// so a shard's own event order — send before absorb — survives).
    pub(crate) fn drain_spans(&mut self, out: &mut Vec<SpanRec>) {
        if self.stats.iter().all(|s| s.spans.is_empty()) {
            return;
        }
        self.span_merge.clear();
        for st in &mut self.stats {
            self.span_merge.append(&mut st.spans);
        }
        self.span_merge.sort_by_key(|(crossed, _)| *crossed);
        out.extend(self.span_merge.iter().map(|(_, rec)| *rec));
    }

    /// Add the last step's per-shard sent counts into `acc` (index =
    /// shard id) — the observatory's shard-load accumulator.
    pub(crate) fn accumulate_sent(&self, acc: &mut [u64]) {
        for (slot, st) in acc.iter_mut().zip(self.stats.iter()) {
            *slot += st.sent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_validates_and_fingerprints() {
        assert!(ShardPlan::new(vec![0, 2], 2).is_err());
        assert!(ShardPlan::new(vec![0], 0).is_err());
        let a = ShardPlan::new(vec![0, 1, 0], 2).unwrap();
        let b = ShardPlan::new(vec![0, 1, 0], 2).unwrap();
        let c = ShardPlan::new(vec![0, 1, 1], 2).unwrap();
        assert_eq!(a.stamp(), b.stamp());
        assert_ne!(a.stamp(), c.stamp());
        assert_ne!(a.stamp(), ShardStamp::SEQUENTIAL);
        // Every 1-shard plan is THE sequential stamp, any edge count.
        assert_eq!(ShardPlan::sequential(7).stamp(), ShardStamp::SEQUENTIAL);
        assert_eq!(ShardPlan::striped(100, 1).stamp(), ShardStamp::SEQUENTIAL);
    }

    #[test]
    fn plan_constructors_cover_every_edge() {
        let p = ShardPlan::contiguous(10, 4);
        assert_eq!(p.count(), 4);
        assert_eq!(p.shard_of().len(), 10);
        let p = ShardPlan::striped(10, 3);
        assert!(p.shard_of().iter().all(|&s| s < 3));
    }

    #[test]
    fn pool_runs_every_shard_and_barriers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool = ShardPool::new(4);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for round in 1..=10u64 {
            pool.run(
                &|s| {
                    hits[s].fetch_add(1, Ordering::Relaxed);
                },
                false,
            );
            // Barrier: after run() returns, every shard has executed.
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == round));
        }
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            let pool = ShardPool::new(2);
            pool.run(
                &|s| {
                    if s == 1 {
                        panic!("boom");
                    }
                },
                false,
            );
        }));
        assert!(res.is_err());
    }
}
