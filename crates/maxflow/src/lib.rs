//! # maxflow — the max-flow oracle substrate
//!
//! The reliability algorithms decide, for every failure configuration, whether
//! the surviving subgraph admits an s–t flow of value ≥ `d`. This crate is
//! that oracle. It provides:
//!
//! * [`FlowGraph`] — a mutable residual graph with paired forward/backward
//!   arcs, cheap capacity reset (so one graph is reused across the exponential
//!   configuration sweep without reallocation), and per-network-edge arc
//!   handles for masking out failed links;
//! * [`build_flow`] / [`build_flow_multi`] — lowering from a
//!   [`netgraph::Network`] (with optional super-source/super-sink terminals,
//!   used for the per-assignment multi-sink demands of Section III-C);
//! * three solvers behind the [`MaxFlowSolver`] trait, dispatched by
//!   [`SolverKind`] — [`Dinic`] (the default every production path runs),
//!   [`BfsFordFulkerson`] (one augmenting path per unit of flow, the
//!   `O(d·|E|)` oracle of the paper's constant-`d` analysis), and
//!   [`PushRelabel`] (FIFO with gap relabelling, an independent comparator);
//! * all solvers support an early-exit `limit`: augmentation stops as soon as
//!   `limit` units are routed, since the reliability calculation only ever
//!   asks "is max-flow ≥ d?";
//! * [`min_cut`] — minimum s–t cut extraction from a residual graph;
//! * monotonicity witnesses — after a solve, [`NetworkFlow::flow_support_bits`]
//!   (feasible: the edges carrying flow) and
//!   [`NetworkFlow::residual_cut_bits`] (infeasible: the edges crossing the
//!   saturated cut) turn one solver call into a certificate that classifies
//!   whole families of related failure configurations without solving again.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dinic;
pub mod ford_fulkerson;
pub mod graph;
pub mod incremental;
pub mod lower;
pub mod mincut;
pub mod prober;
pub mod push_relabel;
pub mod solver;
pub mod workspace;

pub use dinic::Dinic;
pub use ford_fulkerson::BfsFordFulkerson;
pub use graph::{ArcId, FlowGraph};
pub use incremental::{RepairStats, WarmState};
pub use lower::{build_flow, build_flow_multi, NetworkFlow};
pub use mincut::min_cut;
pub use prober::CutProber;
pub use push_relabel::PushRelabel;
pub use solver::{MaxFlowSolver, SolverKind};
pub use workspace::Workspace;
