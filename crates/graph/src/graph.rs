//! The directed multigraph at the heart of the AQT model.
//!
//! Nodes are communication switches; each directed edge is a
//! unit-capacity link with a buffer at its tail (the buffer itself lives
//! in `aqt-sim`). Parallel edges are allowed — the gadget `F_n` with
//! `n = 1` and the baseball graph both use them.

use std::fmt;

/// Index of a node (switch). Dense `u32` handle into a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a directed edge (link). Dense `u32` handle into a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for direct vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge index as a `usize`, for direct vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A name's byte range in [`Graph::names`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub start: u32,
    pub end: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct EdgeRec {
    pub src: NodeId,
    pub dst: NodeId,
    pub name: Span,
}

/// A finite directed multigraph with named nodes and edges.
///
/// Construction goes through [`crate::GraphBuilder`]; once built, a
/// `Graph` is immutable, which lets the simulator share it freely across
/// threads (`Graph: Send + Sync`).
///
/// Storage is flat: every node and edge name lives in one `String`,
/// addressed by a `(start, end)` span, and adjacency is compressed
/// sparse rows — node `v`'s outgoing edges are
/// `out_edges[out_start[v]..out_start[v + 1]]`, in insertion order, and
/// likewise for incoming edges. A graph is a handful of allocations
/// whatever its size.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) names: String,
    pub(crate) node_names: Vec<Span>,
    pub(crate) edges: Vec<EdgeRec>,
    pub(crate) out_start: Vec<u32>,
    pub(crate) out_edges: Vec<EdgeId>,
    pub(crate) in_start: Vec<u32>,
    pub(crate) in_edges: Vec<EdgeId>,
}

impl Graph {
    /// Number of nodes (`|V| = n` in the paper).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edges (`|E| = m` in the paper).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Source (tail) node of an edge. The edge's buffer sits here.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].src
    }

    /// Destination (head) node of an edge.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].dst
    }

    /// The name behind `span`.
    #[inline]
    fn name(&self, span: Span) -> &str {
        &self.names[span.start as usize..span.end as usize]
    }

    /// Human-readable name of an edge (e.g. `a'`, `e3`, `f1`).
    #[inline]
    pub fn edge_name(&self, e: EdgeId) -> &str {
        self.name(self.edges[e.index()].name)
    }

    /// Human-readable name of a node.
    #[inline]
    pub fn node_name(&self, v: NodeId) -> &str {
        self.name(self.node_names[v.index()])
    }

    /// Outgoing edges of a node, in insertion order.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        let i = v.index();
        &self.out_edges[self.out_start[i] as usize..self.out_start[i + 1] as usize]
    }

    /// Incoming edges of a node, in insertion order.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        let i = v.index();
        &self.in_edges[self.in_start[i] as usize..self.in_start[i + 1] as usize]
    }

    /// Out-degree of a node.
    #[cfg(test)]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of a node. The maximum over all nodes is the parameter
    /// `α` of Díaz et al. referenced in the paper's introduction.
    #[cfg(test)]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Look up an edge by name. Linear scan.
    #[cfg(test)]
    pub fn edge_by_name(&self, name: &str) -> Option<EdgeId> {
        self.edge_ids().find(|&e| self.edge_name(e) == name)
    }

    /// Look up a node by name. Linear scan.
    #[cfg(test)]
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes().find(|&v| self.node_name(v) == name)
    }

    /// `true` if `b` can directly follow `a` on a packet route, i.e.
    /// the head of `a` is the tail of `b`.
    #[inline]
    pub fn consecutive(&self, a: EdgeId, b: EdgeId) -> bool {
        self.dst(a) == self.src(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> Graph {
        // s -> a -> t and s -> b -> t
        let mut g = GraphBuilder::new();
        let s = g.node("s");
        let a = g.node("a");
        let b = g.node("b");
        let t = g.node("t");
        g.edge(s, a, "sa");
        g.edge(s, b, "sb");
        g.edge(a, t, "at");
        g.edge(b, t, "bt");
        g.build()
    }

    #[test]
    fn counts_and_lookup() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let sa = g.edge_by_name("sa").unwrap();
        assert_eq!(g.node_name(g.src(sa)), "s");
        assert_eq!(g.node_name(g.dst(sa)), "a");
        assert!(g.edge_by_name("zz").is_none());
        assert_eq!(g.node_by_name("t"), Some(NodeId(3)));
    }

    #[test]
    fn degrees() {
        let g = diamond();
        let s = g.node_by_name("s").unwrap();
        let t = g.node_by_name("t").unwrap();
        assert_eq!(g.out_degree(s), 2);
        assert_eq!(g.in_degree(s), 0);
        assert_eq!(g.out_degree(t), 0);
        assert_eq!(g.in_degree(t), 2);
    }

    #[test]
    fn adjacency_consistency() {
        let g = diamond();
        for e in g.edge_ids() {
            assert!(g.out_edges(g.src(e)).contains(&e));
            assert!(g.in_edges(g.dst(e)).contains(&e));
        }
        let total_out: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        assert_eq!(total_out, g.edge_count());
    }

    #[test]
    fn consecutive_edges() {
        let g = diamond();
        let sa = g.edge_by_name("sa").unwrap();
        let at = g.edge_by_name("at").unwrap();
        let bt = g.edge_by_name("bt").unwrap();
        assert!(g.consecutive(sa, at));
        assert!(!g.consecutive(sa, bt));
    }

    /// Every graph the crate constructs, by name.
    fn constructed() -> Vec<(&'static str, Graph)> {
        use crate::{topologies, DaisyChain, GEpsilon};
        vec![
            ("ring", topologies::ring(7)),
            ("line", topologies::line(12)),
            ("grid", topologies::grid(3, 4)),
            ("torus", topologies::torus(3, 3)),
            ("hypercube", topologies::hypercube(3)),
            ("complete", topologies::complete(4)),
            ("baseball", topologies::baseball().0),
            ("daisy chain", DaisyChain::new(3, 2).graph),
            ("G_eps", GEpsilon::new(10, 9).graph),
            ("diamond", diamond()),
        ]
    }

    #[test]
    fn csr_adjacency_matches_a_naive_filter() {
        for (what, g) in constructed() {
            for v in g.nodes() {
                let out: Vec<EdgeId> = g.edge_ids().filter(|&e| g.src(e) == v).collect();
                let inc: Vec<EdgeId> = g.edge_ids().filter(|&e| g.dst(e) == v).collect();
                assert_eq!(g.out_edges(v), &out[..], "{what}: out-edges of {v}");
                assert_eq!(g.in_edges(v), &inc[..], "{what}: in-edges of {v}");
            }
        }
    }

    #[test]
    fn every_name_round_trips() {
        for (what, g) in constructed() {
            for v in g.nodes() {
                let name = g.node_name(v);
                assert!(!name.is_empty(), "{what}: {v} is unnamed");
                assert_eq!(g.node_by_name(name), Some(v), "{what}: node {name}");
            }
            for e in g.edge_ids() {
                let name = g.edge_name(e);
                assert!(!name.is_empty(), "{what}: {e} is unnamed");
                assert_eq!(g.edge_by_name(name), Some(e), "{what}: edge {name}");
            }
        }
        // Names written in place read back exactly.
        let line = crate::topologies::line(10);
        let nodes: Vec<&str> = line.nodes().map(|v| line.node_name(v)).collect();
        let edges: Vec<&str> = line.edge_ids().map(|e| line.edge_name(e)).collect();
        assert_eq!(
            nodes,
            ["v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10"]
        );
        assert_eq!(
            edges,
            ["l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8", "l9"]
        );
        let g = crate::GEpsilon::new(2, 2);
        assert_eq!(g.graph.edge_name(g.gadgets[1].f_path[1]), "g2.f2");
        assert_eq!(
            g.graph.node_name(g.graph.src(g.gadgets[1].f_path[1])),
            "g2.f_x1"
        );
        assert_eq!(g.graph.edge_name(g.e0), "e0");
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut b = GraphBuilder::new();
        let u = b.node("u");
        let v = b.node("v");
        let e1 = b.edge(u, v, "p1");
        let e2 = b.edge(u, v, "p2");
        let g = b.build();
        assert_ne!(e1, e2);
        assert_eq!(g.src(e1), g.src(e2));
        assert_eq!(g.dst(e1), g.dst(e2));
        assert_eq!(g.out_degree(u), 2);
    }
}
