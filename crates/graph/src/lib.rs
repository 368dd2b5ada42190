//! # aqt-graph
//!
//! Directed-graph substrate for adversarial queuing theory (AQT).
//!
//! This crate provides the network model of Borodin et al. (*Adversarial
//! queuing theory*, J. ACM 48(1), 2001) as used by Lotker, Patt-Shamir and
//! Rosén (*New stability results for adversarial queuing*, SPAA 2002):
//! a directed graph `G = (V, E)` whose nodes are switches and whose edges
//! are unit-capacity links, together with *routes* (simple directed paths)
//! followed by packets.
//!
//! Besides the generic graph type it contains:
//!
//! * [`gadget`] — the paper's parametric gadget `F_n`, daisy chains
//!   `F_n^M` (the `◦` composition of Definition 3.4), and the cyclic
//!   instability graph `G_ε` of Theorem 3.17 (Figures 3.1 and 3.2).
//! * [`topologies`] — classic AQT evaluation topologies (rings, lines,
//!   grids, tori, hypercubes, complete graphs, and the "baseball" graph
//!   used by the prior FIFO-instability constructions).
//! * [`dot`] — Graphviz export, regenerating the paper's two figures.

#![forbid(unsafe_code)]

#[cfg(test)]
mod analysis;
pub mod builder;
pub mod dot;
pub mod gadget;
pub mod graph;
pub mod route;
pub mod topologies;

pub use builder::GraphBuilder;
pub use gadget::{DaisyChain, FnGadget, GEpsilon, GadgetHandles};
pub use graph::{EdgeId, Graph, NodeId};
pub use route::{Route, RouteError};
