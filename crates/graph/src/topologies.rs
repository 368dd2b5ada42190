//! Classic AQT evaluation topologies.
//!
//! The stability theorems of Section 4 hold for *any* network; the
//! experiment harness exercises them across this family. The
//! [`baseball`] graph is the network underlying the prior FIFO
//! instability constructions the paper improves on (Andrews et al.
//! \[4\], Díaz et al. \[11\], Koukopoulos et al. \[15\]) and the NTG/FFS/LIFO
//! instability results of Borodin et al. \[7\].

use crate::builder::GraphBuilder;
use crate::graph::{EdgeId, Graph, NodeId};

/// Decimal digits of `n`: `1 + decimal_len(n)` bytes hold any
/// one-letter-prefixed name (`v7`, `l12`) whose index is at most `n`.
fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// A directed ring `v_0 -> v_1 -> … -> v_{k-1} -> v_0`.
pub fn ring(k: usize) -> Graph {
    assert!(k >= 2, "a ring needs at least two nodes");
    let name_bytes = 2 * k * (1 + decimal_len(k - 1));
    let mut b = GraphBuilder::with_capacity(k, k, name_bytes);
    let vs = b.nodes(k);
    for i in 0..k {
        b.edge(vs[i], vs[(i + 1) % k], format_args!("r{i}"));
    }
    b.build()
}

/// A directed line `v_0 -> v_1 -> … -> v_k` (`k` edges).
pub fn line(k: usize) -> Graph {
    assert!(k >= 1, "a line needs at least one edge");
    let name_bytes = (2 * k + 1) * (1 + decimal_len(k));
    let mut b = GraphBuilder::with_capacity(k + 1, k, name_bytes);
    let vs = b.nodes(k + 1);
    for i in 0..k {
        b.edge(vs[i], vs[i + 1], format_args!("l{i}"));
    }
    b.build()
}

/// A `w × h` grid with edges in both directions between 4-neighbours.
pub fn grid(w: usize, h: usize) -> Graph {
    assert!(w >= 1 && h >= 1);
    let mut b = GraphBuilder::with_capacity(w * h, 2 * ((w - 1) * h + w * (h - 1)), 0);
    let vs: Vec<Vec<NodeId>> = (0..h)
        .map(|y| (0..w).map(|x| b.node(format_args!("g{x}_{y}"))).collect())
        .collect();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.edge(vs[y][x], vs[y][x + 1], format_args!("h{x}_{y}+"));
                b.edge(vs[y][x + 1], vs[y][x], format_args!("h{x}_{y}-"));
            }
            if y + 1 < h {
                b.edge(vs[y][x], vs[y + 1][x], format_args!("v{x}_{y}+"));
                b.edge(vs[y + 1][x], vs[y][x], format_args!("v{x}_{y}-"));
            }
        }
    }
    b.build()
}

/// A `w × h` torus with unidirectional wrap-around edges (right and down).
pub fn torus(w: usize, h: usize) -> Graph {
    assert!(w >= 2 && h >= 2);
    let mut b = GraphBuilder::with_capacity(w * h, 2 * w * h, 0);
    let vs: Vec<Vec<NodeId>> = (0..h)
        .map(|y| (0..w).map(|x| b.node(format_args!("t{x}_{y}"))).collect())
        .collect();
    for y in 0..h {
        for x in 0..w {
            b.edge(vs[y][x], vs[y][(x + 1) % w], format_args!("h{x}_{y}"));
            b.edge(vs[y][x], vs[(y + 1) % h][x], format_args!("v{x}_{y}"));
        }
    }
    b.build()
}

/// The directed `dim`-dimensional hypercube: nodes are bitstrings, with
/// an edge in each direction across every dimension.
pub fn hypercube(dim: usize) -> Graph {
    assert!((1..=16).contains(&dim));
    let n = 1usize << dim;
    let mut b = GraphBuilder::with_capacity(n, n * dim, 0);
    let vs: Vec<NodeId> = (0..n)
        .map(|i| b.node(format_args!("c{i:0width$b}", width = dim)))
        .collect();
    for i in 0..n {
        for d in 0..dim {
            let j = i ^ (1 << d);
            if i < j {
                b.edge(vs[i], vs[j], format_args!("q{i}_{j}"));
                b.edge(vs[j], vs[i], format_args!("q{j}_{i}"));
            }
        }
    }
    b.build()
}

/// The complete directed graph on `k` nodes (no self-loops).
pub fn complete(k: usize) -> Graph {
    assert!(k >= 2);
    let mut b = GraphBuilder::with_capacity(k, k * (k - 1), 0);
    let vs = b.nodes(k);
    for i in 0..k {
        for j in 0..k {
            if i != j {
                b.edge(vs[i], vs[j], format_args!("k{i}_{j}"));
            }
        }
    }
    b.build()
}

/// Handles into the [`baseball`] graph.
#[derive(Debug, Clone, Copy)]
pub struct Baseball {
    /// First "long" edge `e0 : v0 -> v1`.
    pub e0: EdgeId,
    /// Second "long" edge `e1 : v2 -> v3`.
    pub e1: EdgeId,
    /// First parallel connector `f0 : v1 -> v2`.
    pub f0: EdgeId,
    /// Second parallel connector `f0' : v1 -> v2`.
    pub f0p: EdgeId,
    /// First parallel connector back `f1 : v3 -> v0`.
    pub f1: EdgeId,
    /// Second parallel connector back `f1' : v3 -> v0`.
    pub f1p: EdgeId,
}

/// The four-node "baseball" graph used in the prior FIFO instability
/// constructions (\[4\], \[11\], \[15\]): a directed 4-cycle
/// `v0 -> v1 -> v2 -> v3 -> v0` whose connector hops `v1 -> v2` and
/// `v3 -> v0` are doubled (parallel edges `f` and `f'`), giving the
/// adversary two interchangeable ways around each half.
pub fn baseball() -> (Graph, Baseball) {
    let mut b = GraphBuilder::with_capacity(4, 6, 0);
    let v0 = b.node("v0");
    let v1 = b.node("v1");
    let v2 = b.node("v2");
    let v3 = b.node("v3");
    let e0 = b.edge(v0, v1, "e0");
    let f0 = b.edge(v1, v2, "f0");
    let f0p = b.edge(v1, v2, "f0'");
    let e1 = b.edge(v2, v3, "e1");
    let f1 = b.edge(v3, v0, "f1");
    let f1p = b.edge(v3, v0, "f1'");
    (
        b.build(),
        Baseball {
            e0,
            e1,
            f0,
            f0p,
            f1,
            f1p,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn ring_is_cyclic_line_is_not() {
        assert!(analysis::has_cycle(&ring(5)));
        assert!(!analysis::has_cycle(&line(5)));
        assert_eq!(ring(5).edge_count(), 5);
        assert_eq!(line(5).edge_count(), 5);
        assert_eq!(line(5).node_count(), 6);
    }

    #[test]
    fn grid_edge_count() {
        // 3x2 grid: horizontal pairs 2*2, vertical pairs 3*1, both directions
        let g = grid(3, 2);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 2 * (2 * 2) + 2 * 3);
    }

    #[test]
    fn torus_regular_degrees() {
        let g = torus(3, 3);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 2);
            assert_eq!(g.in_degree(v), 2);
        }
    }

    #[test]
    fn hypercube_degrees() {
        let g = hypercube(3);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 8 * 3);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 3);
            assert_eq!(g.in_degree(v), 3);
        }
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(4);
        assert_eq!(g.edge_count(), 12);
    }

    #[test]
    fn baseball_shape() {
        let (g, h) = baseball();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 6);
        // f0 and f0' are parallel
        assert_eq!(g.src(h.f0), g.src(h.f0p));
        assert_eq!(g.dst(h.f0), g.dst(h.f0p));
        // the cycle e0 f0 e1 f1 closes
        assert!(g.consecutive(h.e0, h.f0));
        assert!(g.consecutive(h.f0, h.e1));
        assert!(g.consecutive(h.e1, h.f1));
        assert!(g.consecutive(h.f1, h.e0));
        assert!(analysis::has_cycle(&g));
    }
}
