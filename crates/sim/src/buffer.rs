//! The buffer layer: packet queues plus an active-edge set.
//!
//! [`BufferStore`] owns one queue per edge and is the only code that
//! touches the underlying containers. Two representation decisions
//! live here, hidden from every other layer:
//!
//! * **Canonical arrival order.** Each buffer is a `VecDeque<Packet>`
//!   in arrival order with the engine's deterministic tie-break
//!   (transits by ascending crossed edge, then injections in
//!   submission order). Protocols, snapshots, and invariant checkers
//!   all observe this order; disciplines with a fast path select
//!   *positions within it* rather than replacing it.
//! * **The active-edge set.** The step loop of the Theorem 3.17
//!   instability runs spends most of its time in regimes where a
//!   handful of the graph's edges hold enormous backlogs and every
//!   other buffer is empty (gadget boundaries, drain phases). Scanning
//!   all `E` buffers per step — what the oracle's
//!   [`crate::ReferenceModel`] does — is O(E) of pure overhead in
//!   exactly the runs that need the most steps. The store
//!   therefore maintains the invariant *every nonempty buffer is in
//!   the active list*; substep 1 iterates only that list.
//!
//! Activation is eager (a push to an empty buffer appends the edge to
//! the list), deactivation is lazy: an emptied buffer stays listed
//! until the next [`BufferStore::begin_step`], which sorts the list
//! back into ascending edge order (the send order the model semantics
//! require), drops entries whose buffers are empty, and
//! releases excess capacity held by the emptied queues (a `VecDeque`
//! never shrinks on its own, and gadget-boundary buffers peak in the
//! millions of packets).
//!
//! # Capacity policy
//!
//! A `VecDeque` doubles when full, so a queue grown one packet at a
//! time carries up to 2× slack, and it never gives memory back. The
//! store keeps large queues tighter, in its two single-packet paths:
//!
//! * **Growth.** [`BufferStore::push_back`] on a full queue of at least
//!   `GROW_EXACT_MIN_LEN` (1,024) packets reserves exactly `len / 4`
//!   more (1.25×) instead of letting the `VecDeque` double.
//! * **Shrink.** [`BufferStore::remove`] on a queue whose capacity is
//!   at least `SHRINK_MIN_CAPACITY` (4,096) and whose length has fallen
//!   below half that capacity shrinks it to `len + len / 4`.
//!
//! A queue grows only when full and shrinks only below half full, and
//! both moves leave it between those two marks, so a queue that
//! alternates one push and one remove at either boundary reallocates
//! once, not on every step. A buffer of at least
//! `SHRINK_MIN_CAPACITY` packets therefore gives memory back at most
//! once per halving of its length. Cohort admission
//! ([`BufferStore::extend_back`]) reserves exactly, and
//! [`BufferStore::begin_step`] releases the capacity of queues that
//! emptied, as before.

use std::collections::VecDeque;

use crate::packet::Packet;

/// Shrink an emptied/shrunken queue only past this capacity: below it
/// the retained allocation is noise, and shrinking tiny buffers that
/// oscillate between empty and length 1 would thrash the allocator.
const COMPACT_MIN_CAPACITY: usize = 64;

/// A full queue at least this long grows by exactly a quarter of its
/// length; shorter queues keep the `VecDeque`'s doubling (see the
/// module docs).
const GROW_EXACT_MIN_LEN: usize = 1_024;

/// A queue with at least this capacity shrinks once its length falls
/// below half the capacity (see the module docs).
const SHRINK_MIN_CAPACITY: usize = 4_096;

/// The active-edge list; see the module docs.
#[derive(Debug, Default)]
struct ActiveList {
    /// Edges whose buffers may be nonempty, ascending after
    /// [`ActiveList::begin_step`]. Superset of the nonempty edges.
    edges: Vec<u32>,
    /// Set when an activation appended out of order.
    needs_sort: bool,
    /// Set when a removal may have emptied a buffer, i.e. the list may
    /// hold stale entries. While clear, [`ActiveList::begin_step`] is a
    /// no-op: in steady backlog regimes (every active buffer stays
    /// nonempty, no new activations) the per-step bookkeeping collapses
    /// to two branch tests instead of a sort + retain over the list.
    maybe_emptied: bool,
}

impl ActiveList {
    /// Restore ascending order, drop emptied entries (compacting their
    /// queues), clear `in_active` for the dropped ones.
    fn begin_step(&mut self, queues: &mut [VecDeque<Packet>], in_active: &mut [bool]) {
        if !self.needs_sort && !self.maybe_emptied {
            return; // nothing activated or emptied since the last step
        }
        if self.needs_sort {
            self.edges.sort_unstable();
            self.needs_sort = false;
        }
        self.maybe_emptied = false;
        self.edges.retain(|&e| {
            let q = &mut queues[e as usize];
            if q.is_empty() {
                in_active[e as usize] = false;
                if q.capacity() > COMPACT_MIN_CAPACITY {
                    q.shrink_to_fit();
                }
                false
            } else {
                true
            }
        });
    }
}

/// Owns every edge buffer; see the module docs for the representation.
#[derive(Debug)]
pub struct BufferStore {
    queues: Vec<VecDeque<Packet>>,
    active: ActiveList,
    /// `in_active[e]` ⇔ `e` is in the active list (prevents duplicate
    /// entries).
    in_active: Vec<bool>,
}

impl BufferStore {
    /// Empty buffers for `edge_count` edges.
    pub fn new(edge_count: usize) -> Self {
        BufferStore {
            queues: vec![VecDeque::new(); edge_count],
            active: ActiveList::default(),
            in_active: vec![false; edge_count],
        }
    }

    /// Rebuild the active list from the queue contents (ascending
    /// iteration keeps it sorted).
    fn rebuild_active(&mut self) {
        self.active.edges.clear();
        self.active.needs_sort = false;
        self.active.maybe_emptied = false;
        for (e, q) in self.queues.iter().enumerate() {
            self.in_active[e] = !q.is_empty();
            if !q.is_empty() {
                self.active.edges.push(e as u32);
            }
        }
    }

    /// Number of edges (buffers).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.queues.len()
    }

    /// Current length of the buffer at edge index `edge`.
    #[inline]
    pub fn len(&self, edge: usize) -> usize {
        self.queues[edge].len()
    }

    /// Iterate the buffer at edge index `edge` in arrival order.
    #[inline]
    pub fn iter(&self, edge: usize) -> impl Iterator<Item = &Packet> {
        self.queues[edge].iter()
    }

    /// Mutably iterate the buffer at edge index `edge` in arrival
    /// order. Packet mutation only — lengths cannot change through
    /// this, so the active set stays consistent.
    #[inline]
    pub fn iter_mut(&mut self, edge: usize) -> impl Iterator<Item = &mut Packet> {
        self.queues[edge].iter_mut()
    }

    /// Every live packet: buffer order within each edge, edges
    /// ascending.
    pub fn packets(&self) -> impl Iterator<Item = &Packet> {
        self.queues.iter().flat_map(|q| q.iter())
    }

    /// The raw queue (crate-internal: [`crate::Protocol::select`] takes
    /// `&VecDeque<Packet>`; everything outside the crate goes through
    /// `Engine::queue_iter` / `Engine::queue_len`).
    #[inline]
    pub(crate) fn queue(&self, edge: usize) -> &VecDeque<Packet> {
        &self.queues[edge]
    }

    /// Append `p` to the buffer at edge index `edge`, activating the
    /// edge if needed. Returns the new queue length.
    #[inline]
    pub fn push_back(&mut self, edge: usize, p: Packet) -> usize {
        if !self.in_active[edge] {
            self.in_active[edge] = true;
            self.active.edges.push(edge as u32);
            self.active.needs_sort = true;
        }
        let q = &mut self.queues[edge];
        if q.len() == q.capacity() && q.len() >= GROW_EXACT_MIN_LEN {
            q.reserve_exact(q.len() / 4);
        }
        q.push_back(p);
        q.len()
    }

    /// Append a whole cohort to the buffer at edge index `edge` in one
    /// range-extend: capacity is reserved exactly once up front (exact,
    /// so cohort-seeded buffers carry no doubling slack), then the
    /// packets are written back-to-back. Returns the new queue length.
    pub fn extend_back(
        &mut self,
        edge: usize,
        packets: impl ExactSizeIterator<Item = Packet>,
    ) -> usize {
        if packets.len() > 0 && !self.in_active[edge] {
            self.in_active[edge] = true;
            self.active.edges.push(edge as u32);
            self.active.needs_sort = true;
        }
        let q = &mut self.queues[edge];
        q.reserve_exact(packets.len());
        q.extend(packets);
        q.len()
    }

    /// Remove and return the packet at `pos` in the buffer at edge
    /// index `edge` (`None` if out of range). Positions 0 and
    /// `len - 1` are O(1); interior positions cost one memmove of the
    /// shorter side. A large queue that falls below half its capacity
    /// shrinks (see the module docs). Deactivation of an emptied buffer
    /// is deferred to [`BufferStore::begin_step`].
    #[inline]
    pub fn remove(&mut self, edge: usize, pos: usize) -> Option<Packet> {
        let q = &mut self.queues[edge];
        let p = q.remove(pos);
        let (len, cap) = (q.len(), q.capacity());
        if cap >= SHRINK_MIN_CAPACITY && len < cap / 2 {
            q.shrink_to(len + len / 4);
        }
        if len == 0 {
            self.active.maybe_emptied = true;
        }
        p
    }

    /// Prepare the active list for one step's send substep: restore
    /// ascending edge order, drop entries whose buffers emptied since
    /// the last step, and compact those buffers' capacity. After this
    /// call, the list holds exactly the ascending nonempty edges.
    pub fn begin_step(&mut self) {
        self.active
            .begin_step(&mut self.queues, &mut self.in_active)
    }

    /// Entries in the active list (valid between `begin_step` calls).
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active.edges.len()
    }

    /// The `k`-th active edge index.
    #[inline]
    pub fn active_edge(&self, k: usize) -> usize {
        self.active.edges[k] as usize
    }

    /// Largest current buffer occupancy anywhere. Every nonempty
    /// buffer is active, so scanning the active list suffices.
    pub fn max_len(&self) -> u64 {
        self.active
            .edges
            .iter()
            .map(|&e| self.queues[e as usize].len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Replace every buffer wholesale (snapshot/checkpoint restore)
    /// and rebuild the active list from scratch.
    pub fn replace_all(&mut self, buffers: impl Iterator<Item = VecDeque<Packet>>) {
        for (slot, buf) in self.queues.iter_mut().zip(buffers) {
            *slot = buf;
        }
        self.rebuild_active();
    }

    /// Heap bytes committed to packet storage: the *capacity* (not
    /// length) of every buffer times the packet size. This is the
    /// buffer side of the benchmark's `sim.bytes_per_packet` metric
    /// (`crates/benchmark`); the interned route storage is accounted by
    /// [`crate::RouteTable::heap_bytes`].
    pub fn heap_bytes(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| (q.capacity() * std::mem::size_of::<Packet>()) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};
    use aqt_graph::EdgeId;

    fn pkt(id: u64) -> Packet {
        Packet::synthetic(id, 0, 0, 0, vec![EdgeId(0)], 0)
    }

    #[test]
    fn activation_tracks_nonempty_buffers() {
        let mut s = BufferStore::new(5);
        s.begin_step();
        assert_eq!(s.active_count(), 0);
        s.push_back(3, pkt(0));
        s.push_back(1, pkt(1));
        s.push_back(3, pkt(2));
        s.begin_step();
        assert_eq!(s.active_count(), 2);
        // ascending edge order, no duplicates
        assert_eq!(s.active_edge(0), 1);
        assert_eq!(s.active_edge(1), 3);
        assert_eq!(s.len(3), 2);
        assert_eq!(s.max_len(), 2);
    }

    #[test]
    fn lazy_deactivation_on_begin_step() {
        let mut s = BufferStore::new(2);
        s.push_back(0, pkt(0));
        s.begin_step();
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.remove(0, 0).unwrap().id, PacketId(0));
        // still listed until the next begin_step...
        assert_eq!(s.active_count(), 1);
        s.begin_step();
        assert_eq!(s.active_count(), 0);
        // ...and re-activation after deactivation works
        s.push_back(0, pkt(1));
        s.begin_step();
        assert_eq!(s.active_count(), 1);
    }

    #[test]
    fn replace_all_rebuilds_active_set() {
        let mut s = BufferStore::new(3);
        s.push_back(0, pkt(0));
        let fresh = vec![
            VecDeque::new(),
            VecDeque::from(vec![pkt(7)]),
            VecDeque::from(vec![pkt(8), pkt(9)]),
        ];
        s.replace_all(fresh.into_iter());
        s.begin_step();
        assert_eq!(s.active_count(), 2);
        assert_eq!(s.active_edge(0), 1);
        assert_eq!(s.active_edge(1), 2);
        assert_eq!(s.len(0), 0);
        assert_eq!(s.packets().count(), 3);
    }

    #[test]
    fn extend_back_reserves_exactly_once_and_activates() {
        let mut s = BufferStore::new(2);
        assert_eq!(
            s.extend_back(1, (0..1000u64).map(pkt).collect::<Vec<_>>().into_iter()),
            1000
        );
        // Exact reserve: a cohort-seeded buffer carries no doubling slack.
        assert_eq!(s.queue(1).capacity(), 1000);
        s.begin_step();
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.active_edge(0), 1);
        assert!(s.iter(1).zip(0..).all(|(p, i)| p.id == PacketId(i)));

        // An empty cohort must not activate the edge.
        let mut s = BufferStore::new(2);
        s.extend_back(0, std::iter::empty());
        s.begin_step();
        assert_eq!(s.active_count(), 0);
    }

    #[test]
    fn begin_step_skips_when_nothing_changed() {
        let mut s = BufferStore::new(2);
        s.push_back(0, pkt(0));
        s.push_back(0, pkt(1));
        s.begin_step();
        // Steady state: a remove that leaves the buffer nonempty plus a
        // push to an already-active edge must keep the fast path valid.
        s.remove(0, 0);
        s.push_back(0, pkt(2));
        s.begin_step();
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.len(0), 2);
        // Draining to empty reactivates the slow path and deactivates.
        s.remove(0, 0);
        s.remove(0, 0);
        s.begin_step();
        assert_eq!(s.active_count(), 0);
    }

    #[test]
    fn emptied_buffers_release_capacity() {
        let mut s = BufferStore::new(1);
        for i in 0..1000 {
            s.push_back(0, pkt(i));
        }
        while s.remove(0, 0).is_some() {}
        assert!(s.queue(0).capacity() > COMPACT_MIN_CAPACITY);
        s.begin_step();
        assert!(s.queue(0).capacity() <= COMPACT_MIN_CAPACITY);
    }

    /// A store holding one queue of `n` packets pushed one at a time.
    fn pushed(n: u64) -> BufferStore {
        let mut s = BufferStore::new(1);
        for i in 0..n {
            s.push_back(0, pkt(i));
        }
        s
    }

    #[test]
    fn single_pushes_grow_large_queues_by_a_quarter() {
        let s = pushed(100_000);
        let (len, cap) = (s.len(0), s.queue(0).capacity());
        assert_eq!(len, 100_000);
        assert!(cap <= len + len / 4 + 1, "capacity {cap} for {len} packets");
    }

    #[test]
    fn draining_gives_memory_back() {
        let mut s = pushed(100_000);
        while s.len(0) > 10_000 {
            s.remove(0, 0);
        }
        let (len, cap) = (s.len(0), s.queue(0).capacity());
        assert!(cap <= 2 * len, "capacity {cap} for {len} packets");
        assert!(s.iter(0).zip(90_000..).all(|(p, i)| p.id == PacketId(i)));
    }

    #[test]
    fn alternating_at_the_grow_mark_reallocates_once() {
        // Fill a queue of at least GROW_EXACT_MIN_LEN to exactly its
        // capacity, then alternate one push and one remove.
        let mut s = pushed(GROW_EXACT_MIN_LEN as u64);
        while s.len(0) < s.queue(0).capacity() {
            s.push_back(0, pkt(0));
        }
        s.push_back(0, pkt(1));
        let cap = s.queue(0).capacity();
        assert!(cap > s.len(0));
        for i in 0..100 {
            s.remove(0, 0);
            assert_eq!(s.queue(0).capacity(), cap);
            s.push_back(0, pkt(i));
            assert_eq!(s.queue(0).capacity(), cap);
        }
    }

    #[test]
    fn alternating_at_the_shrink_mark_reallocates_once() {
        let mut s = pushed(20_000);
        let full = s.queue(0).capacity();
        assert!(full >= SHRINK_MIN_CAPACITY);
        // Down to exactly half the capacity: not yet below it.
        while s.len(0) > full / 2 {
            s.remove(0, 0);
        }
        assert_eq!(s.queue(0).capacity(), full);
        s.remove(0, 0);
        let cap = s.queue(0).capacity();
        assert!(cap < full);
        for i in 0..100 {
            s.push_back(0, pkt(i));
            assert_eq!(s.queue(0).capacity(), cap);
            s.remove(0, 0);
            assert_eq!(s.queue(0).capacity(), cap);
        }
    }

    #[test]
    fn interior_removes_shrink_like_front_removes() {
        // LIS and NTG take packets from inside the queue.
        let mut front = pushed(50_000);
        let mut interior = pushed(50_000);
        while front.len(0) > 0 {
            front.remove(0, 0);
            let mid = interior.len(0) / 2;
            interior.remove(0, mid);
            assert_eq!(front.queue(0).capacity(), interior.queue(0).capacity());
        }
    }
}
