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

#[derive(Debug, Clone)]
pub(crate) struct EdgeRec {
    pub src: NodeId,
    pub dst: NodeId,
    pub name: String,
}

/// A finite directed multigraph with named nodes and edges.
///
/// Construction goes through [`crate::GraphBuilder`]; once built, a
/// `Graph` is immutable, which lets the simulator share it freely across
/// threads (`Graph: Send + Sync`).
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) node_names: Vec<String>,
    pub(crate) edges: Vec<EdgeRec>,
    pub(crate) out_edges: Vec<Vec<EdgeId>>,
    pub(crate) in_edges: Vec<Vec<EdgeId>>,
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

    /// Human-readable name of an edge (e.g. `a'`, `e3`, `f1`).
    #[inline]
    pub fn edge_name(&self, e: EdgeId) -> &str {
        &self.edges[e.index()].name
    }

    /// Human-readable name of a node.
    #[inline]
    pub fn node_name(&self, v: NodeId) -> &str {
        &self.node_names[v.index()]
    }

    /// Outgoing edges of a node, in insertion order.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_edges[v.index()]
    }

    /// Incoming edges of a node, in insertion order.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.in_edges[v.index()]
    }

    /// Out-degree of a node.
    #[cfg(test)]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges[v.index()].len()
    }

    /// In-degree of a node. The maximum over all nodes is the parameter
    /// `α` of Díaz et al. referenced in the paper's introduction.
    #[cfg(test)]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges[v.index()].len()
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
        self.edges
            .iter()
            .position(|e| e.name == name)
            .map(|i| EdgeId(i as u32))
    }

    /// Look up a node by name. Linear scan.
    #[cfg(test)]
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(|i| NodeId(i as u32))
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
