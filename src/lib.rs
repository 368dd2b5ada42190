//! # adversarial-queuing
//!
//! A full Rust reproduction of
//!
//! > Zvi Lotker, Boaz Patt-Shamir, Adi Rosén,
//! > *New stability results for adversarial queuing*, SPAA 2002
//! > (journal version: SIAM J. Comput. 33(2):286–303, 2004).
//!
//! This umbrella crate re-exports the workspace crates:
//!
//! * [`graph`] — network substrate (graphs, routes, gadgets, topologies).
//! * [`sim`] — exact discrete-time AQT simulator with adversary validators.
//! * [`protocols`] — greedy scheduling policies (FIFO, LIFO, LIS, NTG, …).
//! * [`adversary`] — the paper's adversary constructions and baselines.
//! * [`analysis`] — stability verdicts, statistics, reporting.
//! * [`core`] — the paper's headline results as a library:
//!   [`core::instability::InstabilityConstruction`] (FIFO unstable at any
//!   rate `> 1/2`, Theorem 3.17) and [`core::theory::StabilityCertificate`]
//!   (every greedy protocol stable for `r ≤ 1/(d+1)`, Theorems 4.1/4.3).
//! * [`workload`] — closed-loop request/reply layer: client populations
//!   with timeout/retry policies, bounded admission queues with load
//!   shedding, and goodput metering (the congestion-collapse
//!   experiments, E17).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use aqt_adversary::GadgetParams;
    pub use aqt_analysis::{classify_series, Table, Verdict};
    pub use aqt_core::instability::{InstabilityConfig, InstabilityConstruction};
    pub use aqt_core::theory::StabilityCertificate;
    pub use aqt_graph::{topologies, EdgeId, GEpsilon, Graph, GraphBuilder, NodeId, Route};
    pub use aqt_protocols::{by_name, Fifo, Lifo, Lis, Ntg};
    pub use aqt_sim::{Engine, EngineConfig, Protocol, Ratio, Schedule};
}

pub use aqt_adversary as adversary;
pub use aqt_analysis as analysis;
pub use aqt_core as core;
pub use aqt_graph as graph;
pub use aqt_protocols as protocols;
pub use aqt_sim as sim;
pub use aqt_workload as workload;
