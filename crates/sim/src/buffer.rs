//! The buffer layer: packet queues plus an active-edge set.
//!
//! [`BufferStore`] owns one queue per edge and is the only code that
//! touches the underlying containers. Three representation decisions
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
//!   an active list*; substep 1 iterates only those lists.
//! * **Edge shards.** Under the sharded engine (`crate::shard`), the
//!   store keeps one active list *per shard* — edge `e` is listed in
//!   `lists[shard_of[e]]` — so each shard's send substep walks only its
//!   own list and the lists can be maintained concurrently through the
//!   disjoint raw view (`BufferStore::sharded_view`). Unsharded
//!   stores have exactly one list; the partition is representation
//!   only and never affects trajectories.
//!
//! Activation is eager (a push to an empty buffer appends the edge to
//! its owning list), deactivation is lazy: an emptied buffer stays
//! listed until the next [`BufferStore::begin_step`], which sorts the
//! list back into ascending edge order (the send order the model
//! semantics require), drops entries whose buffers are empty, and
//! releases excess capacity held by the emptied queues (a `VecDeque`
//! never shrinks on its own, and gadget-boundary buffers peak in the
//! millions of packets).

use std::collections::VecDeque;

use crate::packet::Packet;

/// Shrink an emptied/shrunken queue only past this capacity: below it
/// the retained allocation is noise, and shrinking tiny buffers that
/// oscillate between empty and length 1 would thrash the allocator.
const COMPACT_MIN_CAPACITY: usize = 64;

/// One shard's active-edge list; see the module docs.
#[derive(Debug, Default)]
struct ActiveList {
    /// Edges whose buffers may be nonempty, ascending after
    /// [`ActiveList::begin_step`]. Superset of the shard's nonempty
    /// edges.
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
    /// queues), clear `in_active` for the dropped ones. Returns the
    /// number of deactivations.
    fn begin_step(&mut self, queues: &mut [VecDeque<Packet>], in_active: &mut [bool]) -> usize {
        if !self.needs_sort && !self.maybe_emptied {
            return 0; // nothing activated or emptied since the last step
        }
        if self.needs_sort {
            self.edges.sort_unstable();
            self.needs_sort = false;
        }
        self.maybe_emptied = false;
        let mut deactivated = 0;
        self.edges.retain(|&e| {
            let q = &mut queues[e as usize];
            if q.is_empty() {
                in_active[e as usize] = false;
                if q.capacity() > COMPACT_MIN_CAPACITY {
                    q.shrink_to_fit();
                }
                deactivated += 1;
                false
            } else {
                true
            }
        });
        deactivated
    }
}

/// Owns every edge buffer; see the module docs for the representation.
#[derive(Debug)]
pub struct BufferStore {
    queues: Vec<VecDeque<Packet>>,
    /// One active list per shard (exactly one when unsharded).
    lists: Vec<ActiveList>,
    /// `shard_of[e]` = index into `lists` owning edge `e`. All zeros
    /// when unsharded (and then never read — see `list_of`).
    shard_of: Vec<u32>,
    /// `in_active[e]` ⇔ `e` is listed in its owning list (prevents
    /// duplicate entries).
    in_active: Vec<bool>,
}

impl BufferStore {
    /// Empty buffers for `edge_count` edges (unsharded: one list).
    pub fn new(edge_count: usize) -> Self {
        BufferStore {
            queues: vec![VecDeque::new(); edge_count],
            lists: vec![ActiveList::default()],
            shard_of: vec![0; edge_count],
            in_active: vec![false; edge_count],
        }
    }

    /// The list owning `edge`. The unsharded case skips the
    /// `shard_of` load entirely — one predictable branch on the hot
    /// path.
    #[inline]
    fn list_of(&self, edge: usize) -> usize {
        if self.lists.len() == 1 {
            0
        } else {
            self.shard_of[edge] as usize
        }
    }

    /// Is the store partitioned into more than one active list?
    #[inline]
    pub(crate) fn is_partitioned(&self) -> bool {
        self.lists.len() > 1
    }

    /// Re-partition the active lists: edge `e` moves to list
    /// `shard_of[e]` (of `count` lists). Rebuilds the lists from the
    /// queues, so it is legal at any point between steps. `shard_of`
    /// entries must be `< count`; `count == 1` restores the unsharded
    /// representation.
    pub(crate) fn set_partition(&mut self, shard_of: Vec<u32>, count: usize) {
        debug_assert_eq!(shard_of.len(), self.queues.len());
        debug_assert!(shard_of.iter().all(|&s| (s as usize) < count.max(1)));
        self.shard_of = shard_of;
        self.lists = (0..count.max(1)).map(|_| ActiveList::default()).collect();
        self.rebuild_lists();
    }

    /// Rebuild every active list from the queue contents (ascending
    /// iteration keeps each list sorted).
    fn rebuild_lists(&mut self) {
        for list in &mut self.lists {
            list.edges.clear();
            list.needs_sort = false;
            list.maybe_emptied = false;
        }
        for (e, q) in self.queues.iter().enumerate() {
            self.in_active[e] = !q.is_empty();
            if !q.is_empty() {
                let s = self.list_of(e);
                self.lists[s].edges.push(e as u32);
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
            let s = self.list_of(edge);
            self.lists[s].edges.push(edge as u32);
            self.lists[s].needs_sort = true;
        }
        let q = &mut self.queues[edge];
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
            let s = self.list_of(edge);
            self.lists[s].edges.push(edge as u32);
            self.lists[s].needs_sort = true;
        }
        let q = &mut self.queues[edge];
        q.reserve_exact(packets.len());
        q.extend(packets);
        q.len()
    }

    /// Remove and return the packet at `pos` in the buffer at edge
    /// index `edge` (`None` if out of range). Positions 0 and
    /// `len - 1` are O(1); interior positions cost one memmove of the
    /// shorter side. Deactivation of an emptied buffer is deferred to
    /// [`BufferStore::begin_step`].
    #[inline]
    pub fn remove(&mut self, edge: usize, pos: usize) -> Option<Packet> {
        let q = &mut self.queues[edge];
        let p = q.remove(pos);
        if q.is_empty() {
            let s = self.list_of(edge);
            self.lists[s].maybe_emptied = true;
        }
        p
    }

    /// Prepare the active lists for one step's send substep: restore
    /// ascending edge order, drop entries whose buffers emptied since
    /// the last step, and compact those buffers' capacity. After this
    /// call, each list holds exactly the ascending nonempty edges of
    /// its shard. Returns the number of emptied buffers deactivated
    /// (the telemetry `buffers_compacted` counter site).
    pub fn begin_step(&mut self) -> usize {
        let mut deactivated = 0;
        for list in &mut self.lists {
            deactivated += list.begin_step(&mut self.queues, &mut self.in_active);
        }
        deactivated
    }

    /// Entries in the active list (valid between `begin_step` calls).
    /// Single-list (unsharded) stores only; the sharded send path walks
    /// per-shard lists through `BufferStore::sharded_view`, and the
    /// sharded *sequential* fallback uses
    /// `BufferStore::merged_active`.
    #[inline]
    pub fn active_count(&self) -> usize {
        debug_assert_eq!(self.lists.len(), 1);
        self.lists[0].edges.len()
    }

    /// The `k`-th active edge index (single-list stores only; see
    /// [`BufferStore::active_count`]).
    #[inline]
    pub fn active_edge(&self, k: usize) -> usize {
        debug_assert_eq!(self.lists.len(), 1);
        self.lists[0].edges[k] as usize
    }

    /// Collect the union of every list's active edges into `out`,
    /// ascending — the sequential send order for a partitioned store
    /// (a sharded engine stepping sequentially through a fault window).
    /// Call after [`BufferStore::begin_step`].
    pub(crate) fn merged_active(&self, out: &mut Vec<u32>) {
        out.clear();
        for list in &self.lists {
            out.extend_from_slice(&list.edges);
        }
        if self.lists.len() > 1 {
            out.sort_unstable();
        }
    }

    /// Largest current buffer occupancy anywhere. Every nonempty
    /// buffer is active, so scanning the active lists suffices.
    pub fn max_len(&self) -> u64 {
        self.lists
            .iter()
            .flat_map(|l| l.edges.iter())
            .map(|&e| self.queues[e as usize].len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Replace every buffer wholesale (snapshot/checkpoint restore)
    /// and rebuild the active lists from scratch, keeping the current
    /// partition.
    pub fn replace_all(&mut self, buffers: impl Iterator<Item = VecDeque<Packet>>) {
        for (slot, buf) in self.queues.iter_mut().zip(buffers) {
            *slot = buf;
        }
        self.rebuild_lists();
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

    /// The raw disjoint view for the sharded engine's parallel phases.
    /// See [`ShardedBuffers`] for the aliasing contract.
    pub(crate) fn sharded_view(&mut self) -> ShardedBuffers {
        ShardedBuffers {
            queues: self.queues.as_mut_ptr(),
            edge_count: self.queues.len(),
            lists: self.lists.as_mut_ptr(),
            list_count: self.lists.len(),
            in_active: self.in_active.as_mut_ptr(),
            shard_of: self.shard_of.as_ptr(),
        }
    }
}

/// A raw view over a [`BufferStore`] for the sharded engine's parallel
/// send/receive phases.
///
/// # Safety contract (upheld by `crate::shard`)
///
/// The store's state decomposes into per-edge slots (`queues[e]`,
/// `in_active[e]`) and per-shard slots (`lists[s]`). Every method takes
/// the acting shard `s` and only touches slots owned by it: edges with
/// `shard_of[e] == s` and list `s`. Callers must ensure that
///
/// * each shard index is driven by at most one thread at a time,
/// * every `edge` argument satisfies `shard_of[edge] == shard`
///   (debug-asserted), and
/// * the view does not outlive the phase — no other access to the
///   `BufferStore` (including through `&self`) happens while any
///   thread is using the view.
///
/// Under that contract, concurrent threads form mutable references
/// only to disjoint slots, so there is no aliasing.
pub(crate) struct ShardedBuffers {
    queues: *mut VecDeque<Packet>,
    edge_count: usize,
    lists: *mut ActiveList,
    list_count: usize,
    in_active: *mut bool,
    shard_of: *const u32,
}

unsafe impl Send for ShardedBuffers {}
unsafe impl Sync for ShardedBuffers {}

impl ShardedBuffers {
    #[inline]
    fn check(&self, shard: usize, edge: usize) {
        debug_assert!(shard < self.list_count);
        debug_assert!(edge < self.edge_count);
        debug_assert_eq!(unsafe { *self.shard_of.add(edge) } as usize, shard);
    }

    /// Per-shard [`BufferStore::begin_step`]; returns the shard's
    /// deactivation count.
    ///
    /// # Safety
    /// See the type-level contract.
    pub(crate) unsafe fn begin_step(&self, shard: usize) -> usize {
        debug_assert!(shard < self.list_count);
        let list = unsafe { &mut *self.lists.add(shard) };
        if !list.needs_sort && !list.maybe_emptied {
            return 0;
        }
        if list.needs_sort {
            list.edges.sort_unstable();
            list.needs_sort = false;
        }
        list.maybe_emptied = false;
        let mut deactivated = 0;
        let queues = self.queues;
        let in_active = self.in_active;
        list.edges.retain(|&e| {
            // Owned edges only: the list holds the shard's own edges.
            let q = unsafe { &mut *queues.add(e as usize) };
            if q.is_empty() {
                unsafe { *in_active.add(e as usize) = false };
                if q.capacity() > COMPACT_MIN_CAPACITY {
                    q.shrink_to_fit();
                }
                deactivated += 1;
                false
            } else {
                true
            }
        });
        deactivated
    }

    /// Entries in shard `shard`'s active list.
    ///
    /// # Safety
    /// See the type-level contract.
    #[inline]
    pub(crate) unsafe fn active_count(&self, shard: usize) -> usize {
        debug_assert!(shard < self.list_count);
        unsafe { (*self.lists.add(shard)).edges.len() }
    }

    /// The `k`-th active edge of shard `shard`.
    ///
    /// # Safety
    /// See the type-level contract.
    #[inline]
    pub(crate) unsafe fn active_edge(&self, shard: usize, k: usize) -> usize {
        debug_assert!(shard < self.list_count);
        unsafe { (&(*self.lists.add(shard)).edges)[k] as usize }
    }

    /// The queue at `edge` (owned by `shard`).
    ///
    /// # Safety
    /// See the type-level contract. The returned borrow must end
    /// before the next mutating call for the same edge.
    #[inline]
    pub(crate) unsafe fn queue(&self, shard: usize, edge: usize) -> &VecDeque<Packet> {
        self.check(shard, edge);
        unsafe { &*self.queues.add(edge) }
    }

    /// [`BufferStore::remove`] restricted to `shard`'s own edges.
    ///
    /// # Safety
    /// See the type-level contract.
    #[inline]
    pub(crate) unsafe fn remove(&self, shard: usize, edge: usize, pos: usize) -> Option<Packet> {
        self.check(shard, edge);
        let q = unsafe { &mut *self.queues.add(edge) };
        let p = q.remove(pos);
        if q.is_empty() {
            unsafe { (*self.lists.add(shard)).maybe_emptied = true };
        }
        p
    }

    /// [`BufferStore::push_back`] restricted to `shard`'s own edges.
    /// Returns the new queue length.
    ///
    /// # Safety
    /// See the type-level contract.
    #[inline]
    pub(crate) unsafe fn push_back(&self, shard: usize, edge: usize, p: Packet) -> usize {
        self.check(shard, edge);
        let active = unsafe { &mut *self.in_active.add(edge) };
        if !*active {
            *active = true;
            let list = unsafe { &mut *self.lists.add(shard) };
            list.edges.push(edge as u32);
            list.needs_sort = true;
        }
        let q = unsafe { &mut *self.queues.add(edge) };
        q.push_back(p);
        q.len()
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

    #[test]
    fn partition_routes_activations_to_owning_lists() {
        let mut s = BufferStore::new(6);
        s.push_back(0, pkt(0));
        s.push_back(5, pkt(1));
        // striped over 2 shards: evens → 0, odds → 1
        s.set_partition((0..6).map(|e| e as u32 % 2).collect(), 2);
        assert!(s.is_partitioned());
        s.push_back(3, pkt(2));
        s.begin_step();
        let mut merged = Vec::new();
        s.merged_active(&mut merged);
        assert_eq!(merged, vec![0, 3, 5]);
        assert_eq!(s.max_len(), 1);
        // back to one list: everything still reachable
        s.set_partition(vec![0; 6], 1);
        assert!(!s.is_partitioned());
        s.begin_step();
        assert_eq!(s.active_count(), 3);
        assert_eq!(s.packets().count(), 3);
    }

    #[test]
    fn sharded_view_operates_on_owned_slots() {
        let mut s = BufferStore::new(4);
        s.set_partition(vec![0, 1, 0, 1], 2);
        s.push_back(0, pkt(0));
        s.push_back(1, pkt(1));
        s.push_back(3, pkt(2));
        {
            let v = s.sharded_view();
            // Single-threaded exercise of the contract: shard 0 then 1.
            unsafe {
                assert_eq!(v.begin_step(0), 0);
                assert_eq!(v.active_count(0), 1);
                assert_eq!(v.active_edge(0, 0), 0);
                assert_eq!(v.queue(0, 0).len(), 1);
                assert_eq!(v.remove(0, 0, 0).unwrap().id, PacketId(0));
                assert_eq!(v.begin_step(1), 0);
                assert_eq!(v.active_count(1), 2);
                assert_eq!(v.push_back(1, 1, pkt(9)), 2);
            }
        }
        s.begin_step(); // drops the emptied edge 0
        let mut merged = Vec::new();
        s.merged_active(&mut merged);
        assert_eq!(merged, vec![1, 3]);
        assert_eq!(s.len(1), 2);
    }
}
