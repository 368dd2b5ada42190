//! The paper's instability gadgets (Section 3.2, Definition 3.4).
//!
//! A *gadget* is a DAG with an `ingress` edge emanating from a degree-1
//! source and an `egress` edge leading to a degree-1 sink. Two gadgets
//! compose by identifying the egress of the first with the ingress of the
//! second (`G ◦ H`, "daisy-chaining"); `F^i = F^{i-1} ◦ F`.
//!
//! The parametric gadget `F_n` has ingress `a`, egress `a'`, and two
//! parallel internal paths of length `n` between them: `e_1 … e_n` and
//! `f_1 … f_n` (Figure 3.1 shows `F_n^2`). The cyclic instability graph
//! `G_ε` of Theorem 3.17 (Figure 3.2) is `F_n^M` plus a feedback edge
//! `e0` from the head of the last gadget's egress to the tail of the
//! first gadget's ingress.

use crate::builder::GraphBuilder;
use crate::graph::{EdgeId, Graph};

/// Per-gadget edge handles inside a composed graph.
///
/// For gadget `k` of a chain, `ingress` is the shared edge with gadget
/// `k-1` (or the chain's ingress for `k = 0`) and `egress` is shared with
/// gadget `k+1`.
#[derive(Debug, Clone)]
pub struct GadgetHandles {
    /// The edge `a` (shared with the predecessor's egress).
    pub ingress: EdgeId,
    /// The edge `a'` (shared with the successor's ingress).
    pub egress: EdgeId,
    /// The upper internal path `e_1 .. e_n`.
    pub e_path: Vec<EdgeId>,
    /// The lower internal path `f_1 .. f_n`.
    pub f_path: Vec<EdgeId>,
}

impl GadgetHandles {
    /// The gadget parameter `n` (length of each internal path).
    pub fn n(&self) -> usize {
        self.e_path.len()
    }
}

/// A single `F_n` gadget as a standalone graph.
#[derive(Debug, Clone)]
pub struct FnGadget {
    /// The underlying graph.
    pub graph: Graph,
    /// Edge handles.
    pub handles: GadgetHandles,
    /// The parameter `n`.
    pub n: usize,
}

/// `F_n^M`: `M` daisy-chained `F_n` gadgets (Definition 3.4).
#[derive(Debug, Clone)]
pub struct DaisyChain {
    /// The underlying graph.
    pub graph: Graph,
    /// Handles for gadgets `F(1) .. F(M)` (0-indexed here).
    pub gadgets: Vec<GadgetHandles>,
    /// The parameter `n`.
    pub n: usize,
}

/// The cyclic graph `G_ε` of Theorem 3.17: `F_n^M` plus the feedback
/// edge `e0` (Figure 3.2).
#[derive(Debug, Clone)]
pub struct GEpsilon {
    /// The underlying graph.
    pub graph: Graph,
    /// Handles for gadgets `F(1) .. F(M)` (0-indexed here).
    pub gadgets: Vec<GadgetHandles>,
    /// Feedback edge from the head of `F(M)`'s egress to the tail of
    /// `F(1)`'s ingress.
    pub e0: EdgeId,
    /// The gadget parameter `n`.
    pub n: usize,
    /// The chain length `M`.
    pub m: usize,
}

/// Internal: build `M` chained gadgets starting from a fresh source.
/// Returns (builder, handles).
fn chain_builder(n: usize, m: usize) -> (GraphBuilder, Vec<GadgetHandles>) {
    assert!(n >= 1, "gadget parameter n must be >= 1");
    assert!(m >= 1, "chain length M must be >= 1");
    let mut b = GraphBuilder::new();
    let source = b.node("src");
    let mut entry = b.node("g1_in");
    let mut ingress = b.edge(source, entry, "a^1");
    let mut gadgets = Vec::with_capacity(m);
    for k in 1..=m {
        let exit = b.node(format!("g{k}_out"));
        let e_path = b.path(entry, exit, n, &format!("g{k}.e"));
        let f_path = b.path(entry, exit, n, &format!("g{k}.f"));
        let next_entry = if k == m {
            b.node("sink")
        } else {
            b.node(format!("g{}_in", k + 1))
        };
        let egress = b.edge(exit, next_entry, format!("a^{}", k + 1));
        gadgets.push(GadgetHandles {
            ingress,
            egress,
            e_path,
            f_path,
        });
        ingress = egress;
        entry = next_entry;
    }
    (b, gadgets)
}

impl FnGadget {
    /// Build a standalone `F_n`.
    pub fn new(n: usize) -> Self {
        let (b, mut gadgets) = chain_builder(n, 1);
        let handles = gadgets.pop().expect("one gadget");
        FnGadget {
            graph: b.build(),
            handles,
            n,
        }
    }
}

impl DaisyChain {
    /// Build `F_n^M`. `F_n^2` is the graph of Figure 3.1.
    pub fn new(n: usize, m: usize) -> Self {
        let (b, gadgets) = chain_builder(n, m);
        DaisyChain {
            graph: b.build(),
            gadgets,
            n,
        }
    }

    /// The chain's overall ingress edge (ingress of `F(1)`).
    pub fn ingress(&self) -> EdgeId {
        self.gadgets[0].ingress
    }

    /// The chain's overall egress edge (egress of `F(M)`).
    pub fn egress(&self) -> EdgeId {
        self.gadgets.last().expect("non-empty chain").egress
    }
}

impl GEpsilon {
    /// Build `G_ε` with explicit parameters `n` (gadget path length) and
    /// `M` (chain length). Parameter selection from `ε` itself lives in
    /// `aqt-adversary::params` (it depends on the adversary's rate).
    pub fn new(n: usize, m: usize) -> Self {
        let (mut b, gadgets) = chain_builder(n, m);
        let last_egress = gadgets.last().expect("non-empty chain").egress;
        let first_ingress = gadgets[0].ingress;
        // e0 runs from the head of egress(F(M)) to the tail of
        // ingress(F(1)). chain_builder assigns node ids sequentially:
        // "src" (tail of the first ingress) is node 0, and "sink" (head
        // of the last egress) is the most recently created node.
        let src_node = crate::graph::NodeId(0);
        let sink_node = crate::graph::NodeId((b.node_count() - 1) as u32);
        let e0 = b.edge(sink_node, src_node, "e0");
        let graph = b.build();
        debug_assert_eq!(graph.src(e0), graph.dst(last_egress));
        debug_assert_eq!(graph.dst(e0), graph.src(first_ingress));
        GEpsilon {
            graph,
            gadgets,
            e0,
            n,
            m,
        }
    }

    /// Ingress edge of `F(1)`.
    pub fn ingress(&self) -> EdgeId {
        self.gadgets[0].ingress
    }

    /// Egress edge of `F(M)`.
    pub fn egress(&self) -> EdgeId {
        self.gadgets.last().expect("non-empty chain").egress
    }

    /// The three-edge stitch path of Lemma 3.16:
    /// `a0 = egress(F(M))`, `a1 = e0`, `a2 = ingress(F(1))`.
    pub fn stitch_path(&self) -> [EdgeId; 3] {
        [self.egress(), self.e0, self.ingress()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Route;

    #[test]
    fn fn_gadget_structure() {
        // F_3: ingress + egress + two 3-paths = 8 edges;
        // nodes: src, in, out, sink + 2*2 intermediates = 8
        let g = FnGadget::new(3);
        assert_eq!(g.graph.edge_count(), 8);
        assert_eq!(g.graph.node_count(), 8);
        let h = &g.handles;
        assert_eq!(h.n(), 3);
        // ingress from a degree-1 source
        let src = g.graph.src(h.ingress);
        assert_eq!(g.graph.out_degree(src), 1);
        assert_eq!(g.graph.in_degree(src), 0);
        // egress to a degree-1 sink
        let sink = g.graph.dst(h.egress);
        assert_eq!(g.graph.in_degree(sink), 1);
        assert_eq!(g.graph.out_degree(sink), 0);
        // both internal paths run from head(ingress) to tail(egress)
        for path in [&h.e_path, &h.f_path] {
            assert_eq!(g.graph.src(path[0]), g.graph.dst(h.ingress));
            assert_eq!(g.graph.dst(path[2]), g.graph.src(h.egress));
        }
    }

    #[test]
    fn fn1_uses_parallel_edges() {
        let g = FnGadget::new(1);
        // a, a', e1, f1 — e1 and f1 are parallel
        assert_eq!(g.graph.edge_count(), 4);
        let h = &g.handles;
        assert_eq!(g.graph.src(h.e_path[0]), g.graph.src(h.f_path[0]));
        assert_eq!(g.graph.dst(h.e_path[0]), g.graph.dst(h.f_path[0]));
    }

    #[test]
    fn daisy_chain_shares_boundary_edges() {
        // Figure 3.1: F_n^2 — egress of F is the ingress of F'.
        let c = DaisyChain::new(4, 2);
        assert_eq!(c.gadgets.len(), 2);
        assert_eq!(c.gadgets[0].egress, c.gadgets[1].ingress);
        // edge count: M*(2n+1) + 1
        assert_eq!(c.graph.edge_count(), 2 * (2 * 4 + 1) + 1);
    }

    #[test]
    fn daisy_chain_route_through_everything_is_simple() {
        // The extended routes of the construction traverse
        // a, f_1..f_n, a', f'_1..f'_n, a'' — must be a simple path.
        let c = DaisyChain::new(3, 2);
        let mut edges = vec![c.gadgets[0].ingress];
        edges.extend_from_slice(&c.gadgets[0].f_path);
        edges.push(c.gadgets[0].egress);
        edges.extend_from_slice(&c.gadgets[1].f_path);
        edges.push(c.gadgets[1].egress);
        let r = Route::new(&c.graph, edges).expect("long route must be simple");
        assert_eq!(r.len(), 2 * 3 + 3);
    }

    #[test]
    fn g_epsilon_feedback_edge() {
        let g = GEpsilon::new(3, 4);
        assert_eq!(g.gadgets.len(), 4);
        assert_eq!(g.graph.src(g.e0), g.graph.dst(g.egress()));
        assert_eq!(g.graph.dst(g.e0), g.graph.src(g.ingress()));
        // edge count: M*(2n+1) + 1 + feedback
        assert_eq!(g.graph.edge_count(), 4 * 7 + 2);
    }

    #[test]
    fn stitch_path_is_consecutive() {
        let g = GEpsilon::new(2, 3);
        let [a0, a1, a2] = g.stitch_path();
        assert!(g.graph.consecutive(a0, a1));
        assert!(g.graph.consecutive(a1, a2));
        let r = Route::new(&g.graph, vec![a0, a1, a2]).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn g_epsilon_contains_exactly_one_cycle_through_e0() {
        // Removing e0 leaves a DAG (the daisy chain).
        let g = GEpsilon::new(2, 2);
        let cyclic = crate::analysis::has_cycle(&g.graph);
        assert!(cyclic);
        let chain = DaisyChain::new(2, 2);
        assert!(!crate::analysis::has_cycle(&chain.graph));
    }
}
