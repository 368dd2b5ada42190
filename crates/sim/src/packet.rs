//! Packets: the unit of traffic.

use aqt_graph::EdgeId;

use crate::routes::RouteId;

/// Global simulation time, in steps. The system starts at time 0;
/// step `t` (for `t ≥ 1`) consists of substep 1 (send) and substep 2
/// (receive + inject). "Injected at time t" means during substep 2 of
/// step `t`.
pub type Time = u64;

/// Unique, monotonically increasing packet identifier. Used for
/// deterministic tie-breaking in protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// A packet in flight (or queued).
///
/// The packet does not own its route: it carries a 4-byte [`RouteId`]
/// into the engine's [`crate::RouteTable`] plus the route's length.
/// Adversaries inject thousands of packets with identical routes and
/// the rerouting of Lemma 3.3 extends whole cohorts at once, so each
/// distinct route is interned exactly once and packets are plain `Copy`
/// values — 40 bytes, no refcounts, no `Drop`, memcpy-friendly queue
/// operations.
///
/// Keeping the length in the packet (rather than behind the table
/// lookup) makes the distance queries used by the paper's protocols —
/// [`Packet::remaining`], [`Packet::traversed`],
/// [`Packet::on_last_edge`] — packet-local, so protocol `select`
/// implementations never need the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id (injection order).
    pub id: PacketId,
    /// Time of injection into the network (0 for initial-configuration
    /// packets).
    pub injected_at: Time,
    /// Time this packet entered its current buffer.
    pub arrived_at: Time,
    /// Caller-assigned cohort tag (used by experiments to tell packet
    /// populations apart; the simulator itself ignores it).
    pub tag: u32,
    pub(crate) route: RouteId,
    pub(crate) hop: u32,
    pub(crate) route_len: u32,
}

impl Packet {
    /// Construct a detached packet not managed by any engine. Intended
    /// for protocol unit tests and custom tooling; `hop` must index
    /// into `route`. Only the route's *length* is retained — the
    /// packet's route id is the [`RouteId::INVALID`] sentinel, so a
    /// synthetic packet must never be fed to an engine.
    pub fn synthetic(
        id: u64,
        injected_at: Time,
        arrived_at: Time,
        tag: u32,
        route: Vec<EdgeId>,
        hop: u32,
    ) -> Packet {
        assert!((hop as usize) < route.len(), "hop must index into route");
        Packet::detached(
            PacketId(id),
            injected_at,
            arrived_at,
            tag,
            hop,
            route.len() as u32,
        )
    }

    /// A packet outside any engine's route table: its route id is the
    /// [`RouteId::INVALID`] sentinel and only the route's length is
    /// kept. The reference model queues its packets in this form and
    /// holds their routes itself.
    pub(crate) fn detached(
        id: PacketId,
        injected_at: Time,
        arrived_at: Time,
        tag: u32,
        hop: u32,
        route_len: u32,
    ) -> Packet {
        Packet {
            id,
            injected_at,
            arrived_at,
            tag,
            route: RouteId::INVALID,
            hop,
            route_len,
        }
    }

    /// Id of this packet's interned route in the owning engine's
    /// [`crate::RouteTable`]. Resolve it with
    /// [`crate::Engine::routes`]; [`RouteId::INVALID`] for
    /// [`Packet::synthetic`] packets.
    #[inline]
    pub fn route_id(&self) -> RouteId {
        self.route
    }

    /// Total number of edges on the route.
    #[inline]
    pub fn route_len(&self) -> usize {
        self.route_len as usize
    }

    /// Number of edges still to traverse, *including* the current edge.
    /// This is the "distance to go" used by FTG/NTG.
    #[inline]
    pub fn remaining(&self) -> usize {
        (self.route_len - self.hop) as usize
    }

    /// Number of edges already traversed — the "distance from source"
    /// used by FFS/NTS.
    #[inline]
    pub fn traversed(&self) -> usize {
        self.hop as usize
    }

    /// `true` if the current edge is the last on the route (the packet
    /// will be absorbed after crossing it).
    #[inline]
    pub fn on_last_edge(&self) -> bool {
        self.hop + 1 == self.route_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(route: Vec<u32>, hop: u32) -> Packet {
        Packet::synthetic(
            1,
            0,
            0,
            0,
            route.into_iter().map(EdgeId).collect::<Vec<_>>(),
            hop,
        )
    }

    #[test]
    fn distances() {
        let p = mk(vec![0, 1, 2, 3], 1);
        assert_eq!(p.remaining(), 3);
        assert_eq!(p.traversed(), 1);
        assert!(!p.on_last_edge());
        let q = mk(vec![0, 1, 2, 3], 3);
        assert!(q.on_last_edge());
        assert_eq!(q.remaining(), 1);
    }

    #[test]
    fn packets_are_small_plain_values() {
        // The whole point of route interning: a queued packet is a
        // 40-byte Copy value with no heap ownership.
        assert_eq!(std::mem::size_of::<Packet>(), 40);
        fn assert_copy<T: Copy>() {}
        assert_copy::<Packet>();
    }

    #[test]
    fn synthetic_uses_the_invalid_sentinel() {
        let p = mk(vec![0, 1], 0);
        assert_eq!(p.route_id(), RouteId::INVALID);
        assert_eq!(p.route_len(), 2);
    }
}
