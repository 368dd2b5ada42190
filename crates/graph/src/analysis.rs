//! Cycle detection, for tests: the paper's `G_ε` is cyclic, its daisy
//! chains are not.

use crate::graph::{Graph, NodeId};

/// Does the graph contain a directed cycle?
///
/// Iterative DFS with tricolor marking (no recursion: gadget chains can
/// be long).
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
}
