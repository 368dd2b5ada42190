//! Structural graph analysis.
//!
//! The BFS shortest paths that [`crate::paths::shortest_path_pool`]
//! builds route pools from, and (for tests) cycle detection: the
//! paper's `G_ε` is cyclic, its daisy chains are not.

use crate::graph::{EdgeId, Graph, NodeId};

/// Does the graph contain a directed cycle?
///
/// Iterative DFS with tricolor marking (no recursion: gadget chains can
/// be long).
#[cfg(test)]
pub fn has_cycle(graph: &Graph) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = graph.node_count();
    let mut color = vec![Color::White; n];
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    for start in graph.nodes() {
        if color[start.index()] != Color::White {
            continue;
        }
        color[start.index()] = Color::Gray;
        stack.push((start, 0));
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            let outs = graph.out_edges(v);
            if *next < outs.len() {
                let w = graph.dst(outs[*next]);
                *next += 1;
                match color[w.index()] {
                    Color::White => {
                        color[w.index()] = Color::Gray;
                        stack.push((w, 0));
                    }
                    Color::Gray => return true,
                    Color::Black => {}
                }
            } else {
                color[v.index()] = Color::Black;
                stack.pop();
            }
        }
    }
    false
}

/// A shortest path (in hop count) from `src` node to `dst` node, as a
/// sequence of edge ids, or `None` if unreachable. Deterministic:
/// BFS explores out-edges in insertion order.
pub fn shortest_path(graph: &Graph, src: NodeId, dst: NodeId) -> Option<Vec<EdgeId>> {
    if src == dst {
        return Some(Vec::new());
    }
    let mut pred: Vec<Option<EdgeId>> = vec![None; graph.node_count()];
    let mut seen = vec![false; graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    seen[src.index()] = true;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for &e in graph.out_edges(v) {
            let w = graph.dst(e);
            if !seen[w.index()] {
                seen[w.index()] = true;
                pred[w.index()] = Some(e);
                if w == dst {
                    let mut path = Vec::new();
                    let mut cur = dst;
                    while cur != src {
                        let e = pred[cur.index()].expect("predecessor chain");
                        path.push(e);
                        cur = graph.src(e);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadget::{DaisyChain, GEpsilon};
    use crate::topologies;

    #[test]
    fn cycle_detection() {
        assert!(has_cycle(&topologies::ring(3)));
        assert!(!has_cycle(&topologies::line(3)));
        assert!(has_cycle(&topologies::torus(2, 2)));
        assert!(!has_cycle(&DaisyChain::new(2, 3).graph));
        assert!(has_cycle(&GEpsilon::new(2, 3).graph));
    }

    #[test]
    fn shortest_path_on_grid() {
        let g = topologies::grid(3, 3);
        let a = g.node_by_name("g0_0").unwrap();
        let b = g.node_by_name("g2_2").unwrap();
        let p = shortest_path(&g, a, b).unwrap();
        assert_eq!(p.len(), 4);
        // consecutive edges
        for w in p.windows(2) {
            assert!(g.consecutive(w[0], w[1]));
        }
        assert_eq!(g.src(p[0]), a);
        assert_eq!(g.dst(p[3]), b);
    }

    #[test]
    fn shortest_path_unreachable() {
        let g = topologies::line(2);
        let last = crate::NodeId(2);
        let first = crate::NodeId(0);
        assert!(shortest_path(&g, last, first).is_none());
        assert_eq!(shortest_path(&g, first, first), Some(vec![]));
    }
}
