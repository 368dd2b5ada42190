//! A named-topology catalog: `"ring-8"`, `"grid-4x4"`, `"torus-3x3"`,
//! `"hypercube-3"`, `"complete-5"`, `"line-6"`, `"baseball"`,
//! `"fn-3x2"` (a daisy chain `F_3^2`), `"geps-3x4"` (`G_ε` with n=3,
//! M=4).
//!
//! Sweep tooling and CLI examples identify topologies by these names;
//! the format is `<family>[-<p1>[x<p2>]]`.

use crate::gadget::{DaisyChain, GEpsilon};
use crate::graph::Graph;
use crate::topologies;

/// Error for unknown or malformed topology names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogError(pub String);

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown topology spec: {}", self.0)
    }
}

impl std::error::Error for CatalogError {}

fn parse_params(spec: &str) -> (String, Vec<usize>) {
    match spec.split_once('-') {
        None => (spec.to_string(), Vec::new()),
        Some((fam, rest)) => {
            let params: Vec<usize> = rest.split('x').filter_map(|p| p.parse().ok()).collect();
            (fam.to_string(), params)
        }
    }
}

/// Build a topology from its name.
pub fn build(spec: &str) -> Result<Graph, CatalogError> {
    let (family, p) = parse_params(spec);
    let err = || CatalogError(spec.to_string());
    let graph = match (family.as_str(), p.as_slice()) {
        ("ring", [k]) if *k >= 2 => topologies::ring(*k),
        ("line", [k]) if *k >= 1 => topologies::line(*k),
        ("grid", [w, h]) if *w >= 1 && *h >= 1 => topologies::grid(*w, *h),
        ("torus", [w, h]) if *w >= 2 && *h >= 2 => topologies::torus(*w, *h),
        ("hypercube", [d]) if (1..=16).contains(d) => topologies::hypercube(*d),
        ("complete", [k]) if *k >= 2 => topologies::complete(*k),
        ("baseball", []) => topologies::baseball().0,
        ("fn", [n, m]) if *n >= 1 && *m >= 1 => DaisyChain::new(*n, *m).graph,
        ("geps", [n, m]) if *n >= 1 && *m >= 1 => GEpsilon::new(*n, *m).graph,
        _ => return Err(err()),
    };
    Ok(graph)
}

/// A standard suite of small benchmark topologies, by name.
pub fn standard_suite() -> Vec<(&'static str, Graph)> {
    [
        "ring-8",
        "line-6",
        "grid-4x4",
        "torus-4x4",
        "hypercube-3",
        "complete-5",
        "baseball",
    ]
    .into_iter()
    .map(|n| (n, build(n).expect("standard suite names are valid")))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_family() {
        for spec in [
            "ring-5",
            "line-3",
            "grid-2x3",
            "torus-3x3",
            "hypercube-2",
            "complete-4",
            "baseball",
            "fn-3x2",
            "geps-2x3",
        ] {
            let g = build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(g.edge_count() > 0, "{spec} has edges");
        }
    }

    #[test]
    fn rejects_bad_specs() {
        for spec in [
            "",
            "nope",
            "ring",
            "ring-1",
            "grid-3",
            "torus-1x9",
            "hypercube-0",
        ] {
            assert!(build(spec).is_err(), "{spec} should be rejected");
        }
    }

    #[test]
    fn standard_suite_is_consistent() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 7);
        for (name, g) in &suite {
            assert_eq!(g.edge_count(), build(name).unwrap().edge_count());
        }
    }

    #[test]
    fn gadget_specs_match_direct_construction() {
        let via_catalog = build("fn-3x2").unwrap();
        let direct = DaisyChain::new(3, 2).graph;
        assert_eq!(via_catalog.edge_count(), direct.edge_count());
        assert_eq!(via_catalog.node_count(), direct.node_count());
    }
}
