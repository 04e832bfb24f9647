//! Cross-solver agreement on random graphs: every bundled solver must return
//! the same maximum flow, the flow must satisfy conservation, and it must
//! equal the capacity of the extracted minimum cut (weak duality check).

use maxflow::{build_flow, min_cut, SolverKind};
use netgraph::{GraphKind, Network, NetworkBuilder, NodeId};
use proptest::prelude::*;

fn random_network(kind: GraphKind) -> impl Strategy<Value = (Network, NodeId, NodeId)> {
    (
        2usize..10,
        proptest::collection::vec((0usize..10, 0usize..10, 1u64..8), 1..25),
    )
        .prop_map(move |(n, raw)| {
            let mut b = NetworkBuilder::new(kind);
            let nodes = b.add_nodes(n);
            for (u, v, c) in raw {
                let (u, v) = (u % n, v % n);
                b.add_edge(nodes[u], nodes[v], c, 0.1).unwrap();
            }
            (b.build(), nodes[0], nodes[n - 1])
        })
}

fn flow_with(kind: SolverKind, net: &Network, s: NodeId, t: NodeId, limit: u64) -> u64 {
    let mut nf = build_flow(net, s, t);
    nf.apply_all_alive();
    let f = kind.solve(&mut nf.graph, nf.source, nf.sink, limit);
    // push-relabel leaves a preflow, not a flow; skip conservation for it
    if kind != SolverKind::PushRelabel && limit == u64::MAX {
        assert_eq!(nf.graph.check_conservation(nf.source, nf.sink).unwrap(), f);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_solvers_agree_directed((net, s, t) in random_network(GraphKind::Directed)) {
        let reference = flow_with(SolverKind::Dinic, &net, s, t, u64::MAX);
        for kind in SolverKind::ALL {
            prop_assert_eq!(flow_with(kind, &net, s, t, u64::MAX), reference, "{:?}", kind);
        }
    }

    #[test]
    fn all_solvers_agree_undirected((net, s, t) in random_network(GraphKind::Undirected)) {
        let reference = flow_with(SolverKind::Dinic, &net, s, t, u64::MAX);
        for kind in SolverKind::ALL {
            prop_assert_eq!(flow_with(kind, &net, s, t, u64::MAX), reference, "{:?}", kind);
        }
    }

    #[test]
    fn limited_solve_is_min_of_flow_and_limit(
        (net, s, t) in random_network(GraphKind::Directed),
        limit in 0u64..6,
    ) {
        let full = flow_with(SolverKind::Dinic, &net, s, t, u64::MAX);
        for kind in SolverKind::ALL {
            prop_assert_eq!(flow_with(kind, &net, s, t, limit), full.min(limit), "{:?}", kind);
        }
    }

    #[test]
    fn min_cut_matches_max_flow((net, s, t) in random_network(GraphKind::Directed)) {
        let flow = flow_with(SolverKind::Dinic, &net, s, t, u64::MAX);
        let cut = min_cut(&net, s, t, SolverKind::Dinic);
        prop_assert_eq!(cut.value, flow);
        let cap: u64 = cut.edges.iter().map(|&e| net.edge(e).capacity).sum();
        prop_assert_eq!(cap, flow, "cut capacity must equal flow value");
        // s on the source side, t not
        prop_assert!(cut.source_side.contains(&s));
        prop_assert!(!cut.source_side.contains(&t));
    }

    #[test]
    fn undirected_min_cut_matches((net, s, t) in random_network(GraphKind::Undirected)) {
        let flow = flow_with(SolverKind::Dinic, &net, s, t, u64::MAX);
        let cut = min_cut(&net, s, t, SolverKind::Dinic);
        prop_assert_eq!(cut.value, flow);
        let cap: u64 = cut.edges.iter().map(|&e| net.edge(e).capacity).sum();
        prop_assert_eq!(cap, flow);
    }
}
