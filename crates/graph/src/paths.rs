//! Path enumeration and route-pool construction.
//!
//! The stability experiments need route sets with a controlled `d`
//! (the longest route length); the paper's Section 5 remarks that its
//! instability routes are *shortest paths* ("and hence noncircular").
//! This module provides shortest-path route pools and diameter
//! computation.

use crate::analysis::shortest_path;
use crate::graph::Graph;
use crate::route::Route;

/// Hop-count diameter of the graph restricted to reachable pairs
/// (maximum finite shortest-path length). 0 for graphs with no edges.
pub fn diameter(graph: &Graph) -> usize {
    let mut best = 0;
    for s in graph.nodes() {
        // BFS from s
        let mut dist = vec![usize::MAX; graph.node_count()];
        let mut q = std::collections::VecDeque::new();
        dist[s.index()] = 0;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for &e in graph.out_edges(v) {
                let w = graph.dst(e);
                if dist[w.index()] == usize::MAX {
                    dist[w.index()] = dist[v.index()] + 1;
                    best = best.max(dist[w.index()]);
                    q.push_back(w);
                }
            }
        }
    }
    best
}

/// All shortest-path routes between distinct node pairs with length in
/// `[1, max_len]`, in deterministic (source, destination) order. One
/// route per pair (BFS tie-breaking by edge insertion order).
pub fn shortest_path_pool(graph: &Graph, max_len: usize) -> Vec<Route> {
    let mut pool = Vec::new();
    for s in graph.nodes() {
        for t in graph.nodes() {
            if s == t {
                continue;
            }
            if let Some(p) = shortest_path(graph, s, t) {
                if !p.is_empty() && p.len() <= max_len {
                    pool.push(Route::new(graph, p).expect("BFS paths are simple"));
                }
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&topologies::ring(6)), 5);
        assert_eq!(diameter(&topologies::line(4)), 4);
        assert_eq!(diameter(&topologies::complete(5)), 1);
        assert_eq!(diameter(&topologies::hypercube(3)), 3);
    }

    #[test]
    fn shortest_pool_lengths_bounded() {
        let g = topologies::grid(3, 3);
        let pool = shortest_path_pool(&g, 2);
        assert!(!pool.is_empty());
        assert!(pool.iter().all(|r| !r.is_empty() && r.len() <= 2));
        // pairs at distance 1 or 2 in a 3x3 grid: every adjacent pair
        // contributes, so at least the 24 directed adjacencies appear
        assert!(pool.len() >= 24);
    }

    #[test]
    fn shortest_pool_full_diameter() {
        let g = topologies::ring(5);
        let pool = shortest_path_pool(&g, 4);
        // ring: every ordered pair has exactly one path; 5*4 pairs
        assert_eq!(pool.len(), 20);
    }
}
