//! # netgraph — flow-network graph substrate
//!
//! This crate provides the graph model used throughout the `flowrel` workspace:
//! a [`Network`] of nodes connected by capacitated, failure-prone links, together
//! with the graph algorithms the reliability calculation needs as a substrate:
//!
//! * [`Network`] / [`NetworkBuilder`] — the network `G = (V, E)` with per-link
//!   capacity `c(e)` and failure probability `p(e)`, as defined in Section I of
//!   the paper;
//! * [`BitSet`] and [`EdgeMask`] — failure-configuration masks (which links are
//!   alive) used to enumerate the `2^|E|` configurations;
//! * [`Adjacency`] — incidence structure for traversal;
//! * [`traverse`] — BFS/DFS reachability under an edge mask;
//! * [`components`] — connected components under an edge mask;
//! * [`bridges`] — Tarjan bridge detection (the `k = 1` bottleneck fast path);
//! * [`spectrum`] — multi-state link capacities: validated capacity spectra
//!   `[(capacity, prob); k]` and their tranche expansion onto a binary
//!   network, so mixed-radix state configurations map onto edge masks;
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! The graph is a multigraph: parallel links and self-loops are allowed (self
//! loops are ignored by flow and connectivity algorithms). Networks are either
//! [`GraphKind::Directed`] or [`GraphKind::Undirected`]; an undirected link can
//! carry up to its capacity in either direction (but not both simultaneously),
//! which is the standard undirected max-flow semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod bitset;
pub mod bridges;
pub mod components;
pub mod dot;
pub mod error;
pub mod ids;
pub mod network;
pub mod spectrum;
pub mod traverse;

pub use adjacency::Adjacency;
pub use bitset::BitSet;
pub use bridges::{find_bridges, BridgeSearch};
pub use components::{connected_components, ComponentLabels};
pub use error::GraphError;
pub use ids::{EdgeId, NodeId};
pub use network::{Edge, EdgeMask, GraphKind, Network, NetworkBuilder};
pub use spectrum::{
    classify_spectrum, CapacitySpectrum, SpectrumForm, StateDigit, StateExpansion, SPECTRUM_SUM_EPS,
};
pub use traverse::{bfs_reachable, is_connected_st};
