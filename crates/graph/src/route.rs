//! Packet routes: simple directed paths in a [`Graph`].
//!
//! In the AQT model (Section 2 of the paper) every packet is injected
//! with a route, "a simple directed path in `G`". A [`Route`] is a
//! validated, immutable, cheaply-cloneable sequence of edge ids
//! (`Arc<[EdgeId]>` internally — adversaries inject thousands of packets
//! sharing one route, so cloning must not allocate).

use std::fmt;
use std::sync::Arc;

use crate::graph::{EdgeId, Graph, NodeId};

/// Why a candidate edge sequence is not a valid route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Routes must contain at least one edge.
    Empty,
    /// `edges[i]` and `edges[i+1]` are not head-to-tail consecutive.
    Disconnected { position: usize },
    /// A vertex repeats, so the path is not simple. Stores the repeated
    /// node and the edge index at which the repetition was detected.
    NotSimple { node: NodeId, position: usize },
    /// An edge id is out of range for the graph.
    UnknownEdge { edge: EdgeId },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Empty => write!(f, "route is empty"),
            RouteError::Disconnected { position } => {
                write!(
                    f,
                    "edges at positions {} and {} are not consecutive",
                    position,
                    position + 1
                )
            }
            RouteError::NotSimple { node, position } => {
                write!(f, "route revisits node {node} at edge position {position}")
            }
            RouteError::UnknownEdge { edge } => write!(f, "edge {edge} not in graph"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Routes of at most this many edges are checked for repeated nodes by
/// a linear scan; longer ones by sorting (see [`Route::validate`]).
const SCAN_MAX_EDGES: usize = 4;

/// A validated simple directed path, shared via `Arc`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    edges: Arc<[EdgeId]>,
}

impl Route {
    /// Validate `edges` as a simple directed path in `graph`.
    pub fn new(graph: &Graph, edges: impl Into<Vec<EdgeId>>) -> Result<Self, RouteError> {
        let edges: Vec<EdgeId> = edges.into();
        Self::validate(graph, &edges)?;
        Ok(Route {
            edges: edges.into(),
        })
    }

    /// Single-edge route (always simple).
    pub fn single(graph: &Graph, edge: EdgeId) -> Result<Self, RouteError> {
        Self::new(graph, vec![edge])
    }

    fn validate_connectivity(graph: &Graph, edges: &[EdgeId]) -> Result<(), RouteError> {
        if edges.is_empty() {
            return Err(RouteError::Empty);
        }
        for &e in edges {
            if e.index() >= graph.edge_count() {
                return Err(RouteError::UnknownEdge { edge: e });
            }
        }
        for (i, w) in edges.windows(2).enumerate() {
            if !graph.consecutive(w[0], w[1]) {
                return Err(RouteError::Disconnected { position: i });
            }
        }
        Ok(())
    }

    /// Full validation: connectivity plus vertex-simplicity.
    pub fn validate(graph: &Graph, edges: &[EdgeId]) -> Result<(), RouteError> {
        Self::validate_connectivity(graph, edges)?;
        // A route of more than a few edges is checked by sorting its
        // nodes, O(len log len); the per-node scan below is quadratic
        // (about 40× slower at 256 edges) and wins only for the
        // shortest routes. A repeat found by sorting is reported by the
        // scan, which names the first one.
        if edges.len() > SCAN_MAX_EDGES {
            let mut nodes: Vec<NodeId> = std::iter::once(graph.src(edges[0]))
                .chain(edges.iter().map(|&e| graph.dst(e)))
                .collect();
            nodes.sort_unstable();
            if nodes.windows(2).all(|w| w[0] != w[1]) {
                return Ok(());
            }
        }
        Self::first_repeat(graph, edges)
    }

    /// The first node the path revisits, as a `NotSimple` error, by a
    /// linear scan of the nodes seen so far.
    fn first_repeat(graph: &Graph, edges: &[EdgeId]) -> Result<(), RouteError> {
        let mut visited: Vec<NodeId> = Vec::with_capacity(edges.len() + 1);
        visited.push(graph.src(edges[0]));
        for (i, &e) in edges.iter().enumerate() {
            let head = graph.dst(e);
            if visited.contains(&head) {
                return Err(RouteError::NotSimple {
                    node: head,
                    position: i,
                });
            }
            visited.push(head);
        }
        Ok(())
    }

    /// The edges of this route in traversal order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Shared handle to the underlying edge slice.
    #[inline]
    pub fn shared(&self) -> Arc<[EdgeId]> {
        Arc::clone(&self.edges)
    }

    /// Number of edges (the packet's path length; its contribution to
    /// the parameter `d` of Section 4).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `false` always — routes are non-empty by construction. Present to
    /// satisfy the `len`/`is_empty` API convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First edge — where the packet is placed upon injection.
    #[inline]
    pub fn first(&self) -> EdgeId {
        self.edges[0]
    }

    /// Last edge — after crossing it the packet is absorbed.
    #[inline]
    pub fn last(&self) -> EdgeId {
        *self.edges.last().expect("routes are non-empty")
    }

    /// Source node of the route.
    pub fn source(&self, graph: &Graph) -> NodeId {
        graph.src(self.first())
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn line(k: usize) -> (Graph, Vec<EdgeId>) {
        let mut b = GraphBuilder::new();
        let s = b.node("s");
        let t = b.node("t");
        let p = b.path(s, t, k, "e");
        (b.build(), p)
    }

    #[test]
    fn valid_route() {
        let (g, p) = line(4);
        let r = Route::new(&g, p.clone()).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.first(), p[0]);
        assert_eq!(r.last(), p[3]);
        assert_eq!(r.source(&g), g.node_by_name("s").unwrap());
    }

    #[test]
    fn empty_route_rejected() {
        let (g, _) = line(2);
        assert_eq!(Route::new(&g, vec![]), Err(RouteError::Empty));
    }

    #[test]
    fn disconnected_rejected() {
        let (g, p) = line(4);
        let err = Route::new(&g, vec![p[0], p[2]]).unwrap_err();
        assert_eq!(err, RouteError::Disconnected { position: 0 });
    }

    #[test]
    fn unknown_edge_rejected() {
        let (g, _) = line(2);
        let err = Route::new(&g, vec![EdgeId(99)]).unwrap_err();
        assert_eq!(err, RouteError::UnknownEdge { edge: EdgeId(99) });
    }

    #[test]
    fn cycle_rejected_as_not_simple() {
        let mut b = GraphBuilder::new();
        let u = b.node("u");
        let v = b.node("v");
        let uv = b.edge(u, v, "uv");
        let vu = b.edge(v, u, "vu");
        let g = b.build();
        let err = Route::new(&g, vec![uv, vu]).unwrap_err();
        assert!(matches!(err, RouteError::NotSimple { .. }));
    }

    /// Around `ring(k)`, a walk of `len` edges from edge 1 is simple
    /// iff `len < k`; the first repeat is the start node, revisited
    /// by edge `k - 1` of the walk. Lengths on both sides of the scan
    /// threshold must give the same verdict and the same position.
    #[test]
    fn long_walks_report_their_first_repeat() {
        for k in [3usize, 6, 40] {
            let g = crate::topologies::ring(k);
            for len in 1..=2 * k {
                let edges: Vec<EdgeId> = (0..len).map(|i| EdgeId(((i + 1) % k) as u32)).collect();
                let got = Route::validate(&g, &edges);
                if len < k {
                    assert_eq!(got, Ok(()), "k = {k}, len = {len}");
                } else {
                    assert_eq!(
                        got,
                        Err(RouteError::NotSimple {
                            node: g.src(edges[0]),
                            position: k - 1,
                        }),
                        "k = {k}, len = {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn clone_shares_storage() {
        let (g, p) = line(3);
        let r = Route::new(&g, p).unwrap();
        let r2 = r.clone();
        assert!(Arc::ptr_eq(&r.shared(), &r2.shared()));
    }

    #[test]
    fn display_is_compact() {
        let (g, p) = line(2);
        let r = Route::new(&g, p).unwrap();
        assert_eq!(format!("{r}"), "[e0 e1]");
    }
}
