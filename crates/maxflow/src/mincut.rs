//! Minimum s–t cut extraction from a solved residual graph.

use netgraph::{EdgeId, Network, NodeId};

use crate::graph::FlowGraph;
use crate::lower::build_flow;
use crate::solver::SolverKind;

/// A minimum s–t cut of a network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCut {
    /// The cut value (equals the maximum flow).
    pub value: u64,
    /// Network edges crossing the cut from the source side to the sink side.
    pub edges: Vec<EdgeId>,
    /// Nodes on the source side of the cut.
    pub source_side: Vec<NodeId>,
}

/// Nodes reachable from `s` in the residual graph (after a full solve).
pub(crate) fn residual_reachable(g: &FlowGraph, s: usize) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    seen[s] = true;
    let mut stack = vec![s];
    while let Some(u) = stack.pop() {
        for &arc in g.arcs_from(u) {
            let v = g.arc_head(arc);
            if !seen[v] && g.residual(arc) > 0 {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen
}

/// Computes a minimum s–t cut of `net` (all links alive) using `solver`.
///
/// For directed networks the cut contains edges from the source side to the
/// sink side; for undirected networks it contains every edge with endpoints on
/// opposite sides.
pub fn min_cut(net: &Network, s: NodeId, t: NodeId, solver: SolverKind) -> MinCut {
    let mut nf = build_flow(net, s, t);
    nf.apply_all_alive();
    let value = solver.solve(&mut nf.graph, nf.source, nf.sink, u64::MAX);
    let seen = residual_reachable(&nf.graph, nf.source);
    let mut edges = Vec::new();
    for (id, e) in net.edge_refs() {
        let su = seen[e.src.index()];
        let sv = seen[e.dst.index()];
        let crosses = match net.kind() {
            netgraph::GraphKind::Directed => su && !sv,
            netgraph::GraphKind::Undirected => su != sv,
        };
        if crosses {
            edges.push(id);
        }
    }
    let source_side = seen
        .iter()
        .enumerate()
        .filter(|&(_, &x)| x)
        .map(|(i, _)| NodeId::from(i))
        .collect();
    MinCut {
        value,
        edges,
        source_side,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{GraphKind, NetworkBuilder};

    #[test]
    fn cut_value_equals_flow_and_capacity() {
        // s -2-> a -1-> t : min cut is the middle edge
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 2, 0.1).unwrap();
        b.add_edge(n[1], n[2], 1, 0.1).unwrap();
        let net = b.build();
        let cut = min_cut(&net, n[0], n[2], SolverKind::Dinic);
        assert_eq!(cut.value, 1);
        assert_eq!(cut.edges, vec![EdgeId(1)]);
        assert_eq!(cut.source_side, vec![n[0], n[1]]);
    }

    #[test]
    fn cut_capacity_matches_value() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1], 3, 0.1).unwrap();
        b.add_edge(n[0], n[2], 2, 0.1).unwrap();
        b.add_edge(n[1], n[3], 2, 0.1).unwrap();
        b.add_edge(n[2], n[3], 3, 0.1).unwrap();
        let net = b.build();
        let cut = min_cut(&net, n[0], n[3], SolverKind::PushRelabel);
        let cap: u64 = cut.edges.iter().map(|&e| net.edge(e).capacity).sum();
        assert_eq!(cut.value, 4);
        assert_eq!(cap, cut.value);
    }

    #[test]
    fn undirected_cut_counts_both_orientations() {
        let mut b = NetworkBuilder::new(GraphKind::Undirected);
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1], 5, 0.1).unwrap();
        b.add_edge(n[2], n[1], 1, 0.1).unwrap(); // declared toward the middle
        let net = b.build();
        let cut = min_cut(&net, n[0], n[2], SolverKind::Dinic);
        assert_eq!(cut.value, 1);
        assert_eq!(cut.edges, vec![EdgeId(1)]);
    }

    #[test]
    fn disconnected_gives_empty_cut() {
        let mut b = NetworkBuilder::new(GraphKind::Directed);
        let n = b.add_nodes(2);
        let net = b.build();
        let cut = min_cut(&net, n[0], n[1], SolverKind::Dinic);
        assert_eq!(cut.value, 0);
        assert!(cut.edges.is_empty());
    }
}
