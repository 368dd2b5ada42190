//! Append-only route interner.
//!
//! Every packet in the adversarial constructions of the paper travels a
//! route shared with an entire cohort: Lemma 3.6 injects whole sets
//! along one path, and Lemma 3.3 reroutes a cohort onto one common
//! extension. The engine therefore stores each distinct route exactly
//! once in a [`RouteTable`] and packets carry a 4-byte [`RouteId`]
//! instead of a fat `Arc<[EdgeId]>` pointer — no refcount traffic when
//! packets move between buffers, and `Packet` becomes `Copy`.
//!
//! The table is append-only: a `RouteId`, once issued, stays valid for
//! the lifetime of the engine (snapshot restore interns into the
//! existing table rather than replacing it). Deduplication is by
//! content hash with full collision checks, so interning the same edge
//! sequence twice always returns the same id.
//!
//! # Layout
//!
//! No route costs a heap allocation of its own. Every interned edge
//! lives in one `arena`, route `i` being `arena[starts[i]..starts[i + 1]]`,
//! and the dedup index maps a content hash to the *newest* id with that
//! hash; older ids with the same hash follow through an intrusive
//! `next` chain, one `u32` per route. The content hash is FNV-1a over
//! one `u32` word per edge. Ids never depended on the hash — they are
//! assigned in intern order, and dedup compares content — so the
//! choice of hash changes which routes share a chain, never an id.

use std::collections::HashMap;

use aqt_graph::EdgeId;

/// Index of an interned route in a [`RouteTable`].
///
/// Ids are dense and append-only: the n-th distinct route interned gets
/// id n. [`RouteId::INVALID`] is a reserved sentinel used by synthetic
/// packets that never enter an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(pub u32);

impl RouteId {
    /// Sentinel for packets constructed outside any engine
    /// ([`crate::Packet::synthetic`]); never issued by a table.
    pub const INVALID: RouteId = RouteId(u32::MAX);
}

/// FNV-1a over the edge indices, one `u32` word per edge. The std
/// `SipHash` would do, but a fixed, dependency-free hash keeps the
/// table's behaviour identical across platforms and toolchains.
fn fnv1a(edges: &[EdgeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in edges {
        h ^= u64::from(e.0);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a stream of `u64` words (little-endian bytes): the
/// dependency-free content hash behind [`crate::Schedule::content_hash`]
/// and [`crate::FaultPlan::plan_id`] — the provenance ids telemetry
/// records carry. Same platform-independence rationale as `fnv1a`.
pub fn fnv1a_u64s(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// End of a `next` chain.
const NO_ROUTE: u32 = u32::MAX;

/// Append-only, content-deduplicated store of packet routes; see the
/// module docs for the layout.
///
/// Equality compares the interned entries in id order, so two tables
/// that interned the same routes in the same order are equal even if
/// their hash buckets differ.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Every interned route's edges, back to back in id order.
    arena: Vec<EdgeId>,
    /// Route `i` is `arena[starts[i]..starts[i + 1]]`; one entry more
    /// than there are routes.
    starts: Vec<usize>,
    /// Content hash → newest id with that hash.
    index: HashMap<u64, u32>,
    /// `next[i]`: the next older id with route `i`'s hash, or
    /// [`NO_ROUTE`].
    next: Vec<u32>,
}

impl Default for RouteTable {
    fn default() -> Self {
        RouteTable {
            arena: Vec::new(),
            starts: vec![0],
            index: HashMap::new(),
            next: Vec::new(),
        }
    }
}

impl RouteTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct routes interned so far.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Intern `edges`, returning the id of the existing entry with the
    /// same content or appending a new one.
    ///
    /// # Panics
    /// If the table would exceed `u32::MAX - 1` distinct routes (the
    /// last id is reserved for [`RouteId::INVALID`]).
    pub fn intern(&mut self, edges: &[EdgeId]) -> RouteId {
        let head = self.index.entry(fnv1a(edges)).or_insert(NO_ROUTE);
        let mut id = *head;
        while id != NO_ROUTE {
            let i = id as usize;
            if self.arena[self.starts[i]..self.starts[i + 1]] == *edges {
                return RouteId(id);
            }
            id = self.next[i];
        }
        let id = u32::try_from(self.next.len()).expect("route table overflow");
        assert!(id < NO_ROUTE, "route table overflow");
        self.arena.extend_from_slice(edges);
        self.starts.push(self.arena.len());
        self.next.push(*head);
        *head = id;
        RouteId(id)
    }

    /// The edge sequence behind `id`.
    ///
    /// # Panics
    /// If `id` was not issued by this table (including
    /// [`RouteId::INVALID`]).
    #[inline]
    pub fn get(&self, id: RouteId) -> &[EdgeId] {
        let i = id.0 as usize;
        &self.arena[self.starts[i]..self.starts[i + 1]]
    }

    /// Non-panicking lookup, for validation paths.
    #[inline]
    pub fn try_get(&self, id: RouteId) -> Option<&[EdgeId]> {
        let i = id.0 as usize;
        let end = *self.starts.get(i.checked_add(1)?)?;
        self.arena.get(self.starts[i]..end)
    }

    /// All interned routes in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[EdgeId]> {
        self.starts.windows(2).map(|w| &self.arena[w[0]..w[1]])
    }

    /// Heap bytes held by the interned routes themselves (excluding the
    /// hash index, which is bookkeeping rather than packet payload).
    pub fn heap_bytes(&self) -> u64 {
        std::mem::size_of_val::<[EdgeId]>(&self.arena) as u64
    }

    /// Deep self-check used by the sentinel at deep cadence: every
    /// entry must hash into a chain that contains it, every chain
    /// member must exist and hash to its chain's key, and no two
    /// entries may hold the same content (dedup held). Returns a
    /// description of the first inconsistency.
    pub fn verify_integrity(&self) -> Result<(), String> {
        let mut chained = 0usize;
        for (&key, &head) in &self.index {
            let mut id = head;
            let mut links = 0usize;
            while id != NO_ROUTE {
                let Some(entry) = self.try_get(RouteId(id)) else {
                    return Err(format!("index references missing route id {id}"));
                };
                if fnv1a(entry) != key {
                    return Err(format!("route id {id} filed under the wrong hash"));
                }
                links += 1;
                if links > self.len() {
                    return Err(format!("the chain of route id {head} loops"));
                }
                id = self.next[id as usize];
            }
            chained += links;
            // The chain is finite and every member exists: compare pairs.
            let mut a = head;
            while a != NO_ROUTE {
                let mut b = self.next[a as usize];
                while b != NO_ROUTE {
                    if self.get(RouteId(a)) == self.get(RouteId(b)) {
                        return Err(format!("routes {b} and {a} are duplicate interns"));
                    }
                    b = self.next[b as usize];
                }
                a = self.next[a as usize];
            }
        }
        if chained != self.len() {
            return Err(format!(
                "{} routes interned but {chained} indexed",
                self.len()
            ));
        }
        Ok(())
    }
}

/// Tables are equal iff they interned the same routes in the same
/// order; the hash index is derived state and not compared.
impl PartialEq for RouteTable {
    fn eq(&self, other: &Self) -> bool {
        self.starts == other.starts && self.arena == other.arena
    }
}

impl Eq for RouteTable {}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ids: &[u32]) -> Vec<EdgeId> {
        ids.iter().map(|&i| EdgeId(i)).collect()
    }

    #[test]
    fn interning_dedups_by_content() {
        let mut t = RouteTable::new();
        let a = t.intern(&e(&[0, 1, 2]));
        let b = t.intern(&e(&[3]));
        let a2 = t.intern(&e(&[0, 1, 2]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), &e(&[0, 1, 2])[..]);
        assert_eq!(t.get(b), &e(&[3])[..]);
    }

    #[test]
    fn ids_are_dense_in_intern_order() {
        let mut t = RouteTable::new();
        for i in 0..100u32 {
            assert_eq!(t.intern(&e(&[i])), RouteId(i));
        }
        assert_eq!(t.len(), 100);
        t.verify_integrity().unwrap();
    }

    #[test]
    fn equality_ignores_the_index_and_tracks_order() {
        let mut a = RouteTable::new();
        let mut b = RouteTable::new();
        a.intern(&e(&[1]));
        a.intern(&e(&[2]));
        b.intern(&e(&[1]));
        assert_ne!(a, b);
        b.intern(&e(&[2]));
        assert_eq!(a, b);
        // Same routes, different order: different ids, unequal tables.
        let mut c = RouteTable::new();
        c.intern(&e(&[2]));
        c.intern(&e(&[1]));
        assert_ne!(a, c);
    }

    /// Append `edges` as a new entry behind the index's back, filed
    /// at the head of `hash`'s chain.
    fn forge(t: &mut RouteTable, edges: &[EdgeId], hash: u64) {
        let id = t.len() as u32;
        t.arena.extend_from_slice(edges);
        t.starts.push(t.arena.len());
        let head = t.index.insert(hash, id).unwrap_or(NO_ROUTE);
        t.next.push(head);
    }

    #[test]
    fn integrity_check_catches_hand_made_duplicates() {
        let mut t = RouteTable::new();
        t.intern(&e(&[7, 8]));
        t.verify_integrity().unwrap();
        // Forge a duplicate entry behind the index's back.
        forge(&mut t, &e(&[7, 8]), fnv1a(&e(&[7, 8])));
        assert_eq!(
            t.verify_integrity(),
            Err("routes 0 and 1 are duplicate interns".into())
        );
    }

    #[test]
    fn integrity_check_catches_misfiled_and_missing_routes() {
        let mut t = RouteTable::new();
        t.intern(&e(&[1]));
        forge(&mut t, &e(&[2]), fnv1a(&e(&[1])));
        assert!(t.verify_integrity().unwrap_err().contains("wrong hash"));

        let mut t = RouteTable::new();
        t.intern(&e(&[1]));
        t.next[0] = 5;
        assert!(t.verify_integrity().unwrap_err().contains("missing"));

        let mut t = RouteTable::new();
        t.intern(&e(&[1]));
        t.next[0] = 0;
        assert!(t.verify_integrity().unwrap_err().contains("loops"));
    }

    /// Two three-edge routes with the same word-wise FNV-1a hash, found
    /// by a birthday search over random two-word prefixes.
    fn colliding_routes() -> (Vec<EdgeId>, Vec<EdgeId>) {
        let a = e(&[1_043_707_438, 3_114_430_745, 0]);
        let b = e(&[1_392_553_391, 1_890_716_153, 1_979_982_109]);
        assert_eq!(fnv1a(&a), fnv1a(&b));
        (a, b)
    }

    #[test]
    fn hash_collisions_chain_and_dedup() {
        let (a, b) = colliding_routes();
        let mut t = RouteTable::new();
        let x = t.intern(&e(&[9]));
        let ia = t.intern(&a);
        let ib = t.intern(&b);
        assert_eq!((x, ia, ib), (RouteId(0), RouteId(1), RouteId(2)));
        // One chain holds both, newest first.
        assert_eq!(t.index.len(), 2);
        assert_eq!(t.index[&fnv1a(&a)], 2);
        assert_eq!(t.next[2], 1);
        assert_eq!(t.intern(&a), ia);
        assert_eq!(t.intern(&b), ib);
        assert_eq!(t.get(ia), &a[..]);
        assert_eq!(t.get(ib), &b[..]);
        assert_eq!(t.len(), 3);
        t.verify_integrity().unwrap();

        // A duplicate deep in a collision chain is still caught.
        forge(&mut t, &a, fnv1a(&a));
        assert_eq!(
            t.verify_integrity(),
            Err("routes 1 and 3 are duplicate interns".into())
        );
    }

    #[test]
    fn lookups_and_iteration_follow_the_arena() {
        let mut t = RouteTable::new();
        assert_eq!(t.try_get(RouteId(0)), None);
        t.intern(&e(&[4, 5]));
        t.intern(&e(&[]));
        t.intern(&e(&[6]));
        assert_eq!(t.try_get(RouteId(1)), Some(&[][..]));
        assert_eq!(t.try_get(RouteId(2)), Some(&e(&[6])[..]));
        assert_eq!(t.try_get(RouteId(3)), None);
        assert_eq!(t.try_get(RouteId::INVALID), None);
        let all: Vec<&[EdgeId]> = t.iter().collect();
        assert_eq!(all, vec![&e(&[4, 5])[..], &[][..], &e(&[6])[..]]);
        assert_eq!(t.iter().len(), 3);
        t.verify_integrity().unwrap();
    }

    #[test]
    fn heap_bytes_counts_edge_storage() {
        let mut t = RouteTable::new();
        assert_eq!(t.heap_bytes(), 0);
        t.intern(&e(&[0, 1, 2, 3, 4]));
        assert_eq!(t.heap_bytes(), 20);
    }
}
