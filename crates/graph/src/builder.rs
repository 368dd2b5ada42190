//! Mutable construction of [`Graph`]s.
//!
//! The builder formats every node and edge name straight into one
//! `String` as it goes, and [`GraphBuilder::build`] lays the adjacency
//! out as compressed sparse rows (see [`Graph`]).

use std::fmt::{self, Write};

use crate::graph::{EdgeId, EdgeRec, Graph, NodeId, Span};

/// Incremental builder for [`Graph`].
///
/// ```
/// use aqt_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let u = b.node("u");
/// let v = b.node("v");
/// let e = b.edge(u, v, "uv");
/// let g = b.build();
/// assert_eq!(g.src(e), u);
/// assert_eq!(g.dst(e), v);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    names: String,
    node_names: Vec<Span>,
    edges: Vec<EdgeRec>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `nodes` nodes, `edges` edges and
    /// `name_bytes` bytes of names, so that a graph within those sizes
    /// is built without growing any vector.
    pub fn with_capacity(nodes: usize, edges: usize, name_bytes: usize) -> Self {
        GraphBuilder {
            names: String::with_capacity(name_bytes),
            node_names: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Write `name` at the end of the names, returning its span.
    fn write_name(&mut self, name: fmt::Arguments<'_>) -> Span {
        let start = self.names.len();
        self.names
            .write_fmt(name)
            .expect("formatting into a String cannot fail");
        let at = |i: usize| u32::try_from(i).expect("graph names exceed 4 GiB");
        Span {
            start: at(start),
            end: at(self.names.len()),
        }
    }

    /// Add a node with the given display name; returns its id. The name
    /// is formatted straight into the builder's names, so a generated
    /// name (`b.node(format_args!("g{k}_in"))`) needs no `String`.
    pub fn node(&mut self, name: impl fmt::Display) -> NodeId {
        self.named_node(format_args!("{name}"))
    }

    /// [`GraphBuilder::node`] for the names the builder generates itself:
    /// written in one formatting pass, not through a second `Display`.
    fn named_node(&mut self, name: fmt::Arguments<'_>) -> NodeId {
        let span = self.write_name(name);
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(span);
        id
    }

    /// Add `count` anonymous nodes (named `v<k>`), returning their ids.
    pub fn nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count)
            .map(|_| {
                let k = self.node_names.len();
                self.named_node(format_args!("v{k}"))
            })
            .collect()
    }

    /// Add a directed edge `src -> dst` with the given display name,
    /// formatted in place like [`GraphBuilder::node`]'s.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist.
    pub fn edge(&mut self, src: NodeId, dst: NodeId, name: impl fmt::Display) -> EdgeId {
        self.named_edge(src, dst, format_args!("{name}"))
    }

    /// [`GraphBuilder::edge`] for the names the builder generates itself.
    fn named_edge(&mut self, src: NodeId, dst: NodeId, name: fmt::Arguments<'_>) -> EdgeId {
        assert!(
            src.index() < self.node_names.len() && dst.index() < self.node_names.len(),
            "edge endpoints must be previously created nodes"
        );
        let name = self.write_name(name);
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRec { src, dst, name });
        id
    }

    /// Add a directed path of fresh intermediate nodes between `src` and
    /// `dst` consisting of `len` edges named `<prefix>1 .. <prefix><len>`.
    /// Returns the edge ids of the path in order.
    ///
    /// With `len == 1` this is a single (possibly parallel) edge
    /// `src -> dst`.
    pub fn path(&mut self, src: NodeId, dst: NodeId, len: usize, prefix: &str) -> Vec<EdgeId> {
        assert!(len >= 1, "a path must contain at least one edge");
        let mut edges = Vec::with_capacity(len);
        let mut cur = src;
        for i in 1..=len {
            let next = if i == len {
                dst
            } else {
                self.named_node(format_args!("{prefix}_x{i}"))
            };
            edges.push(self.named_edge(cur, next, format_args!("{prefix}{i}")));
            cur = next;
        }
        edges
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalize into an immutable [`Graph`], computing adjacency.
    pub fn build(self) -> Graph {
        let n = self.node_names.len();
        let (out_start, out_edges) = csr(n, self.edges.iter().map(|e| e.src));
        let (in_start, in_edges) = csr(n, self.edges.iter().map(|e| e.dst));
        Graph {
            names: self.names,
            node_names: self.node_names,
            edges: self.edges,
            out_start,
            out_edges,
            in_start,
            in_edges,
        }
    }
}

/// Compressed sparse rows over `n` nodes, where edge `i` belongs to the
/// `i`-th node of `owners`: row `v` is `edges[start[v]..start[v + 1]]`,
/// in ascending edge id (insertion) order.
fn csr(n: usize, owners: impl Iterator<Item = NodeId> + Clone) -> (Vec<u32>, Vec<EdgeId>) {
    let mut start = vec![0u32; n + 1];
    for v in owners.clone() {
        start[v.index() + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut edges = vec![EdgeId(0); start[n] as usize];
    // Fill each row using its start as a cursor; afterwards `start[v]`
    // holds row `v`'s end, i.e. row `v + 1`'s start.
    for (i, v) in owners.enumerate() {
        let cursor = &mut start[v.index()];
        edges[*cursor as usize] = EdgeId(i as u32);
        *cursor += 1;
    }
    start.copy_within(0..n, 1);
    start[0] = 0;
    (start, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_of_length_three() {
        let mut b = GraphBuilder::new();
        let s = b.node("s");
        let t = b.node("t");
        let p = b.path(s, t, 3, "e");
        let g = b.build();
        assert_eq!(p.len(), 3);
        assert_eq!(g.src(p[0]), s);
        assert_eq!(g.dst(p[2]), t);
        for w in p.windows(2) {
            assert!(g.consecutive(w[0], w[1]));
        }
        // 2 endpoints + 2 fresh intermediates
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_name(p[1]), "e2");
    }

    #[test]
    fn path_of_length_one_is_single_edge() {
        let mut b = GraphBuilder::new();
        let s = b.node("s");
        let t = b.node("t");
        let p = b.path(s, t, 1, "a");
        let g = b.build();
        assert_eq!(p.len(), 1);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.src(p[0]), s);
        assert_eq!(g.dst(p[0]), t);
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn zero_length_path_panics() {
        let mut b = GraphBuilder::new();
        let s = b.node("s");
        let t = b.node("t");
        b.path(s, t, 0, "e");
    }

    #[test]
    fn anonymous_nodes() {
        let mut b = GraphBuilder::new();
        let vs = b.nodes(5);
        assert_eq!(vs.len(), 5);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
    }
}
