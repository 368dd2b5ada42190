//! Lockstep differential oracle: a deliberately naive reference engine
//! stepped alongside the optimized pipeline and diffed against it.
//!
//! The engine's staged pipeline earns its speed from an active-edge set
//! and per-[`Discipline`](crate::protocol::Discipline) fast paths. The
//! equivalence proptests pin those optimizations at test time; the
//! oracle cross-checks them *continuously*, on whatever run the user
//! actually cares about. [`ReferenceModel`] is the textbook O(V·E)
//! simulator: scan **every** edge buffer each step, always dispatch
//! through the virtual [`Protocol::select`], no caching of any kind —
//! slow on purpose, so its correctness is easy to audit. An [`Oracle`]
//! owns one, mirrors every engine step (including faults, bursts, and
//! Lemma 3.3 route extensions), and at a configurable cadence `k`
//! compares complete states: clock, id counter, conservation counters,
//! and every queued packet field by field, its full route included.
//! The model shares no route code with the engine: each queued packet
//! carries its own route edges, so a fault in the engine's route
//! interning or lookup shows up as a route that differs edge for edge.
//! A mismatch is raised through the sentinel as
//! [`InvariantKind::OracleDivergence`](
//! crate::sentinel::InvariantKind::OracleDivergence).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use aqt_graph::{EdgeId, Graph, Route};

use crate::engine::{Engine, Injection};
use crate::fault::FaultPlan;
use crate::packet::{Packet, PacketId, Time};
use crate::protocol::Protocol;
use crate::snapshot::{PacketState, Snapshot, SNAPSHOT_SCHEMA_VERSION};

/// One model route: the full edge sequence, shared by every packet
/// admitted on the same [`Route`].
type Edges = Arc<[EdgeId]>;

/// The naive reference simulator: the model semantics with none of the
/// engine's optimizations. State is exactly what a [`Snapshot`]
/// captures, so the two convert losslessly in both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceModel {
    time: Time,
    next_id: u64,
    injected: u64,
    absorbed: u64,
    dropped: u64,
    duplicated: u64,
    /// Queued packets per edge, in queue order, as
    /// [`Protocol::select`] sees them. Their route ids are the
    /// detached sentinel: the model never resolves one.
    buffers: Vec<VecDeque<Packet>>,
    /// Each queued packet's route, moving in step with `buffers`.
    routes: Vec<VecDeque<Edges>>,
}

impl ReferenceModel {
    /// An empty model over `edge_count` buffers at time 0.
    pub fn new(edge_count: usize) -> Self {
        ReferenceModel {
            time: 0,
            next_id: 0,
            injected: 0,
            absorbed: 0,
            dropped: 0,
            duplicated: 0,
            buffers: vec![VecDeque::new(); edge_count],
            routes: vec![VecDeque::new(); edge_count],
        }
    }

    /// Build a model holding exactly the state of `snap`.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let route = |p: &PacketState| &snap.routes[p.route as usize];
        ReferenceModel {
            time: snap.time,
            next_id: snap.next_id,
            injected: snap.injected,
            absorbed: snap.absorbed,
            dropped: snap.dropped,
            duplicated: snap.duplicated,
            buffers: snap
                .buffers
                .iter()
                .map(|buf| {
                    buf.iter()
                        .map(|p| {
                            let len = route(p).len() as u32;
                            Packet::detached(
                                PacketId(p.id),
                                p.injected_at,
                                p.arrived_at,
                                p.tag,
                                p.hop,
                                len,
                            )
                        })
                        .collect()
                })
                .collect(),
            routes: snap
                .buffers
                .iter()
                .map(|buf| buf.iter().map(|p| Arc::clone(route(p))).collect())
                .collect(),
        }
    }

    /// Capture the model's state in snapshot form: routes numbered by
    /// content, in first-appearance order over the buffers (edges
    /// ascending, queue order within each edge).
    pub fn to_snapshot(&self) -> Snapshot {
        let mut numbering: HashMap<&[EdgeId], u32> = HashMap::new();
        let mut routes: Vec<Edges> = Vec::new();
        let buffers = self
            .buffers
            .iter()
            .zip(&self.routes)
            .map(|(queue, queue_routes)| {
                queue
                    .iter()
                    .zip(queue_routes)
                    .map(|(p, edges)| PacketState {
                        id: p.id.0,
                        injected_at: p.injected_at,
                        arrived_at: p.arrived_at,
                        tag: p.tag,
                        route: *numbering.entry(edges).or_insert_with(|| {
                            routes.push(Arc::clone(edges));
                            (routes.len() - 1) as u32
                        }),
                        hop: p.hop,
                    })
                    .collect()
            })
            .collect();
        Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            time: self.time,
            routes,
            buffers,
            next_id: self.next_id,
            injected: self.injected,
            absorbed: self.absorbed,
            dropped: self.dropped,
            duplicated: self.duplicated,
        }
    }

    /// Current model time.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Total packets currently queued.
    pub fn backlog(&self) -> u64 {
        self.buffers.iter().map(|b| b.len() as u64).sum()
    }

    /// Queue `p` at the back of its current edge's buffer.
    fn enqueue(&mut self, p: Packet, edges: Edges) {
        let at = edges[p.hop as usize].index();
        self.buffers[at].push_back(p);
        self.routes[at].push_back(edges);
    }

    fn admit(&mut self, edges: Edges, t: Time, tag: u32) {
        let p = Packet::detached(PacketId(self.next_id), t, t, tag, 0, edges.len() as u32);
        self.next_id += 1;
        self.injected += 1;
        self.enqueue(p, edges);
    }

    /// Mirror of [`Engine::seed_cohort`]: place `n` initial-configuration
    /// packets at time 0.
    pub(crate) fn mirror_seed(&mut self, route: &Route, tag: u32, n: u64) {
        for _ in 0..n {
            self.admit(route.shared(), 0, tag);
        }
    }

    /// Mirror of [`Engine::extend_routes_in`]: append `suffix` to the
    /// route of every packet in the listed buffers whose route ends at
    /// `last_edge`. Packets that shared a route before share its
    /// extension, so a cohort allocates once.
    pub(crate) fn mirror_extend(
        &mut self,
        buffers: &[EdgeId],
        suffix: &[EdgeId],
        last_edge: EdgeId,
    ) {
        let mut extended: Vec<(Edges, Edges)> = Vec::new();
        for &be in buffers {
            let queue = self.buffers[be.index()].iter_mut();
            for (p, edges) in queue.zip(self.routes[be.index()].iter_mut()) {
                if edges.last() != Some(&last_edge) {
                    continue;
                }
                let new = match extended.iter().find(|(old, _)| Arc::ptr_eq(old, edges)) {
                    Some((_, new)) => Arc::clone(new),
                    None => {
                        let new: Edges = edges.iter().chain(suffix).copied().collect();
                        extended.push((Arc::clone(edges), Arc::clone(&new)));
                        new
                    }
                };
                p.route_len = new.len() as u32;
                *edges = new;
            }
        }
    }

    /// One full model step, in exactly the engine's substage order:
    /// send, wire faults, receive, inject, burst. `protocol` must be a
    /// separate instance configured identically to the engine's (for
    /// stateful protocols, identically seeded).
    pub fn step(
        &mut self,
        protocol: &mut dyn Protocol,
        graph: &Graph,
        faults: Option<&FaultPlan>,
        injections: &[Injection],
    ) {
        let t = self.time + 1;
        self.time = t;
        let faults_active = faults.is_some_and(|f| f.active_at(t));

        // Substep 1: full scan, virtual dispatch, no fast paths.
        let mut in_transit: Vec<(Packet, Edges)> = Vec::new();
        for ei in 0..self.buffers.len() {
            if self.buffers[ei].is_empty() {
                continue;
            }
            let edge = EdgeId(ei as u32);
            if faults_active && faults.is_some_and(|f| f.edge_down(edge, t)) {
                continue;
            }
            let idx = protocol.select(t, edge, &self.buffers[ei], graph);
            let p = self.buffers[ei]
                .remove(idx)
                .expect("protocol selected an in-range index");
            let edges = self.routes[ei]
                .remove(idx)
                .expect("routes move with packets");
            in_transit.push((p, edges));
        }

        // Wire-fault stage: drops and duplications, in transit order.
        let mut delivered: Vec<(Packet, Edges)> = Vec::with_capacity(in_transit.len());
        for (p, edges) in in_transit {
            let crossed = edges[p.hop as usize];
            let (lost, copied) = match faults {
                Some(f) if faults_active => (f.drops_at(crossed, t), f.duplicates_at(crossed, t)),
                _ => (false, false),
            };
            if lost {
                self.dropped += 1;
                continue;
            }
            let copy = copied.then(|| {
                let id = PacketId(self.next_id);
                self.next_id += 1;
                self.duplicated += 1;
                (Packet { id, ..p }, Arc::clone(&edges))
            });
            delivered.push((p, edges));
            delivered.extend(copy);
        }

        // Substep 2a: receive.
        for (mut p, edges) in delivered {
            if p.on_last_edge() {
                self.absorbed += 1;
            } else {
                p.hop += 1;
                p.arrived_at = t;
                self.enqueue(p, edges);
            }
        }

        // Substep 2b: inject, then burst faults. A cohort is `count`
        // identical admissions, exactly the engine's id assignment.
        let bursts = faults
            .filter(|_| faults_active)
            .into_iter()
            .flat_map(|f| f.bursts_at(t))
            .flat_map(|b| &b.injections);
        for inj in injections.iter().chain(bursts) {
            for _ in 0..inj.count {
                self.admit(inj.route.shared(), t, inj.tag);
            }
        }
    }

    /// Replace the model's state with the engine's (used after a
    /// snapshot/checkpoint restore, where replaying is impossible).
    pub(crate) fn resync<P: Protocol>(&mut self, engine: &Engine<P>) {
        *self = ReferenceModel::from_snapshot(&crate::snapshot::capture(engine));
    }

    /// First difference against the engine's state, as a description;
    /// `None` when the states match.
    pub fn diff<P: Protocol>(&self, engine: &Engine<P>) -> Option<String> {
        if self.time != engine.time() {
            return Some(format!(
                "clock diverged: oracle at {}, engine at {}",
                self.time,
                engine.time()
            ));
        }
        if self.next_id != engine.next_packet_id() {
            return Some(format!(
                "id counter diverged: oracle at {}, engine at {}",
                self.next_id,
                engine.next_packet_id()
            ));
        }
        let m = engine.metrics();
        for (name, ours, theirs) in [
            ("injected", self.injected, m.injected),
            ("absorbed", self.absorbed, m.absorbed),
            ("dropped", self.dropped, m.dropped),
            ("duplicated", self.duplicated, m.duplicated),
        ] {
            if ours != theirs {
                return Some(format!(
                    "{name} counter diverged: oracle {ours}, engine {theirs}"
                ));
            }
        }
        if self.buffers.len() != engine.graph().edge_count() {
            return Some(format!(
                "oracle has {} buffers but the graph has {} edges",
                self.buffers.len(),
                engine.graph().edge_count()
            ));
        }
        // A route's content is compared only when its engine route id
        // was last matched with a different model route: `verified[id]`
        // points at the edges of the model route last found equal to
        // engine route `id`, so a cohort's shared route is compared once.
        let mut verified: Vec<*const EdgeId> = vec![std::ptr::null(); engine.routes().len()];
        for (ei, (ours, our_routes)) in self.buffers.iter().zip(&self.routes).enumerate() {
            let edge = EdgeId(ei as u32);
            if ours.len() != engine.queue_len(edge) {
                return Some(format!(
                    "edge {ei}: oracle holds {} packets, engine {}",
                    ours.len(),
                    engine.queue_len(edge)
                ));
            }
            for (pos, (a, b)) in ours.iter().zip(engine.queue_iter(edge)).enumerate() {
                let edges = &our_routes[pos];
                // Every field but the route id, which only the engine has.
                let fields = Packet {
                    route: a.route,
                    ..*b
                };
                if *a != fields {
                    return Some(format!(
                        "edge {ei} position {pos}: oracle has packet {:?} (tag {}, hop {}), \
                         engine has {:?} (tag {}, hop {})",
                        a.id, a.tag, a.hop, b.id, b.tag, b.hop
                    ));
                }
                let seen = &mut verified[b.route_id().0 as usize];
                if *seen == edges.as_ptr() {
                    continue;
                }
                *seen = edges.as_ptr();
                let theirs = engine.routes().get(b.route_id());
                if **edges != *theirs {
                    let i = edges.iter().zip(theirs).take_while(|(x, y)| x == y).count();
                    return Some(format!(
                        "edge {ei} position {pos}: packet {:?}'s route diverged at route \
                         position {i}: oracle edge {:?}, engine edge {:?}",
                        a.id,
                        edges.get(i),
                        theirs.get(i)
                    ));
                }
            }
        }
        None
    }
}

/// The attached lockstep oracle: a reference model plus its own
/// protocol instance and the diff cadence `k`. Created by
/// [`Engine::attach_oracle`].
pub struct Oracle {
    pub(crate) protocol: Box<dyn Protocol>,
    pub(crate) every: u64,
    pub(crate) model: ReferenceModel,
}

impl Oracle {
    pub(crate) fn new(protocol: Box<dyn Protocol>, every: u64, edge_count: usize) -> Self {
        Oracle {
            protocol,
            every: every.max(1),
            model: ReferenceModel::new(edge_count),
        }
    }

    /// The diff cadence (every `k` steps; `k ≥ 1`).
    pub fn cadence(&self) -> u64 {
        self.every
    }

    /// Read-only view of the reference model.
    pub fn model(&self) -> &ReferenceModel {
        &self.model
    }

    /// Is a diff due at step `t`?
    #[inline]
    pub(crate) fn due(&self, t: Time) -> bool {
        t.is_multiple_of(self.every)
    }

    /// Advance the reference model by one step.
    pub(crate) fn step(&mut self, graph: &Graph, faults: Option<&FaultPlan>, inj: &[Injection]) {
        self.model.step(self.protocol.as_mut(), graph, faults, inj);
    }
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle")
            .field("protocol", &self.protocol.name())
            .field("every", &self.every)
            .field("model_time", &self.model.time)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_graph::{topologies, Route};
    use std::sync::Arc;

    struct Fifo;
    impl Protocol for Fifo {
        fn name(&self) -> &str {
            "FIFO"
        }
        fn select(&mut self, _: Time, _: EdgeId, _: &VecDeque<Packet>, _: &Graph) -> usize {
            0
        }
    }

    #[test]
    fn model_matches_a_plain_run() {
        let g = Arc::new(topologies::line(3));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route = Route::new(&g, edges.clone()).unwrap();
        let mut model = ReferenceModel::new(g.edge_count());
        let mut proto = Fifo;
        for _ in 0..4 {
            let inj = [Injection::new(route.clone(), 0)];
            model.step(&mut proto, &g, None, &inj);
        }
        model.step(&mut proto, &g, None, &[]);
        assert_eq!(model.injected, 4);
        // packet 0: injected t=1, crosses e0@2, e1@3, e2@4 -> absorbed;
        // packet 1 follows one step behind.
        assert_eq!(model.absorbed, 2);
        assert_eq!(model.backlog(), 2);
    }

    #[test]
    fn model_applies_wire_faults_in_engine_order() {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route = Route::new(&g, edges.clone()).unwrap();
        let plan = FaultPlan::new()
            .with_drop(edges[0], 2)
            .with_duplicate(edges[1], 4);
        let mut model = ReferenceModel::new(g.edge_count());
        let mut proto = Fifo;
        let inj = [Injection::new(route.clone(), 0)];
        model.step(&mut proto, &g, Some(&plan), &inj); // t=1: inject p0
        model.step(&mut proto, &g, Some(&plan), &inj); // t=2: p0 dropped on e0, p1 injected
        assert_eq!(model.dropped, 1);
        model.step(&mut proto, &g, Some(&plan), &[]); // t=3: p1 crosses e0
        model.step(&mut proto, &g, Some(&plan), &[]); // t=4: p1 duplicated on e1
        assert_eq!(model.duplicated, 1);
        assert_eq!(model.absorbed, 2);
        assert_eq!(model.backlog(), 0);
        // the duplicate consumed an id
        assert_eq!(model.next_id, 3);
    }

    #[test]
    fn snapshot_roundtrip_is_lossless() {
        let g = Arc::new(topologies::ring(4));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route = Route::new(&g, vec![edges[0], edges[1]]).unwrap();
        let mut model = ReferenceModel::new(g.edge_count());
        let mut proto = Fifo;
        for _ in 0..3 {
            let inj = [Injection::new(route.clone(), 9)];
            model.step(&mut proto, &g, None, &inj);
        }
        let snap = model.to_snapshot();
        let rebuilt = ReferenceModel::from_snapshot(&snap);
        assert_eq!(rebuilt.to_snapshot(), snap);
        assert_eq!(rebuilt, model);
    }

    #[test]
    fn mirror_extend_interns_one_extension_per_distinct_route() {
        let g = Arc::new(topologies::line(3));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let short = Route::new(&g, vec![edges[0]]).unwrap();
        let mut model = ReferenceModel::new(g.edge_count());
        model.mirror_seed(&short, 0, 2);
        model.mirror_extend(&[edges[0]], &[edges[1], edges[2]], edges[0]);
        // both packets carry the extended route, one allocation shared
        // by the cohort
        let routes = &model.routes[0];
        assert_eq!(&routes[0][..], &[edges[0], edges[1], edges[2]][..]);
        assert!(Arc::ptr_eq(&routes[0], &routes[1]));
        assert!(model.buffers[0].iter().all(|p| p.route_len() == 3));
    }

    /// A packet whose route is swapped for another of the same length
    /// (the lookup fault of a route table returning entry `i ^ 1`)
    /// still has every packet field right; `diff` must see the route.
    #[test]
    fn diff_reports_a_same_length_route_swap() {
        use crate::engine::EngineConfig;
        let g = Arc::new(topologies::ring(4));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        let a = Route::new(&g, vec![edges[0], edges[1]]).unwrap();
        eng.seed(a, 0).unwrap();
        // attached to a live state: the model is resynchronized from it
        eng.attach_oracle(Box::new(Fifo), 1);
        let mut model = eng.oracle().unwrap().model().clone();
        assert_eq!(model.diff(&eng), None);
        model.routes[0][0] = Arc::from(&[edges[0], edges[3]][..]);
        let report = model.diff(&eng).expect("a swapped route diverges");
        assert!(report.contains("edge 0 position 0"), "{report}");
        assert!(report.contains("route position 1"), "{report}");
    }
}
