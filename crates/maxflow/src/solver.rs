//! The solver trait and dispatch.

use crate::graph::FlowGraph;
use crate::workspace::Workspace;

/// A maximum-flow algorithm over a prepared [`FlowGraph`].
pub trait MaxFlowSolver {
    /// Computes a maximum s–t flow using caller-owned scratch space,
    /// stopping early once `limit` units are routed (pass `u64::MAX` for an
    /// unbounded solve). Returns `min(max_flow, limit)`. The graph retains
    /// the routed flow; call [`FlowGraph::reset`] before reusing it.
    ///
    /// Solvers never shrink the workspace: keep one [`Workspace`] per
    /// oracle/thread and reuse it across solves for allocation-free queries.
    fn solve_ws(
        &self,
        g: &mut FlowGraph,
        s: usize,
        t: usize,
        limit: u64,
        ws: &mut Workspace,
    ) -> u64;

    /// Convenience wrapper around [`solve_ws`](Self::solve_ws) with a
    /// throwaway workspace, for one-off solves.
    fn solve(&self, g: &mut FlowGraph, s: usize, t: usize, limit: u64) -> u64 {
        self.solve_ws(g, s, t, limit, &mut Workspace::new())
    }
}

/// Enumerates the bundled solvers, for configuration and benches.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverKind {
    /// Dinic's algorithm (level graph + blocking flow) — the default.
    #[default]
    Dinic,
    /// BFS Ford–Fulkerson augmenting one unit per path — `O(d·|E|)` when only
    /// `d` units are demanded, the regime the paper analyses.
    BfsFordFulkerson,
    /// FIFO push-relabel with gap relabelling.
    PushRelabel,
}

impl SolverKind {
    /// All bundled solver kinds.
    pub const ALL: [SolverKind; 3] = [
        SolverKind::Dinic,
        SolverKind::BfsFordFulkerson,
        SolverKind::PushRelabel,
    ];

    /// The solver's name, as checkpoints and benches spell it.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Dinic => "dinic",
            SolverKind::BfsFordFulkerson => "bfs-ford-fulkerson",
            SolverKind::PushRelabel => "push-relabel",
        }
    }

    /// Solves with a throwaway workspace.
    pub fn solve(self, g: &mut FlowGraph, s: usize, t: usize, limit: u64) -> u64 {
        self.solve_ws(g, s, t, limit, &mut Workspace::new())
    }

    /// Solves reusing `ws` for scratch space.
    pub fn solve_ws(
        self,
        g: &mut FlowGraph,
        s: usize,
        t: usize,
        limit: u64,
        ws: &mut Workspace,
    ) -> u64 {
        use crate::solver::MaxFlowSolver as _;
        match self {
            SolverKind::Dinic => crate::Dinic.solve_ws(g, s, t, limit, ws),
            SolverKind::BfsFordFulkerson => crate::BfsFordFulkerson.solve_ws(g, s, t, limit, ws),
            SolverKind::PushRelabel => crate::PushRelabel.solve_ws(g, s, t, limit, ws),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_limit_routes_nothing() {
        let mut g = FlowGraph::new(2);
        g.add_arc(0, 1, 3);
        for kind in SolverKind::ALL {
            g.reset();
            assert_eq!(kind.solve(&mut g, 0, 1, 0), 0, "{kind:?}");
        }
    }

    #[test]
    fn default_is_dinic() {
        assert_eq!(SolverKind::default(), SolverKind::Dinic);
    }

    #[test]
    fn workspace_reuse_across_solves_and_sizes() {
        let mut ws = Workspace::new();
        let mut g = FlowGraph::new(3);
        g.add_arc(0, 1, 2);
        g.add_arc(1, 2, 2);
        for kind in SolverKind::ALL {
            g.reset();
            assert_eq!(kind.solve_ws(&mut g, 0, 2, u64::MAX, &mut ws), 2);
        }
        // a smaller graph with the same (now larger) workspace
        let mut g2 = FlowGraph::new(2);
        g2.add_arc(0, 1, 7);
        for kind in SolverKind::ALL {
            g2.reset();
            assert_eq!(kind.solve_ws(&mut g2, 0, 1, u64::MAX, &mut ws), 7);
        }
    }
}
