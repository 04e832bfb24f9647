//! BFS Ford–Fulkerson augmenting one unit at a time.
//!
//! When the question is "can the surviving subgraph carry `d` unit
//! sub-streams?", at most `d` augmentations of one unit each are needed, so
//! this solver runs in `O(d·|E|)` — this is exactly the `O(|V||E|)`-class
//! oracle the paper's complexity analysis assumes for constant `d`.

use crate::graph::FlowGraph;
use crate::solver::MaxFlowSolver;
use crate::workspace::{prepare, Workspace};

/// One BFS + one unit of flow per augmentation. Best when the demand (limit)
/// is a small constant, which is the paper's regime.
#[derive(Clone, Copy, Debug, Default)]
pub struct BfsFordFulkerson;

impl MaxFlowSolver for BfsFordFulkerson {
    fn solve_ws(
        &self,
        g: &mut FlowGraph,
        s: usize,
        t: usize,
        limit: u64,
        ws: &mut Workspace,
    ) -> u64 {
        if s == t {
            return limit;
        }
        g.ensure_csr();
        let n = g.node_count();
        prepare(&mut ws.parent, n, u32::MAX);
        let mut flow = 0u64;
        while flow < limit {
            ws.parent.fill(u32::MAX);
            ws.queue.clear();
            ws.queue.push(s as u32);
            let mut head = 0;
            let mut reached = false;
            'bfs: while head < ws.queue.len() {
                let u = ws.queue[head] as usize;
                head += 1;
                for &arc in g.arcs_from(u) {
                    let v = g.arc_head(arc);
                    if v != s && ws.parent[v] == u32::MAX && g.residual(arc) > 0 {
                        ws.parent[v] = arc;
                        if v == t {
                            reached = true;
                            break 'bfs;
                        }
                        ws.queue.push(v as u32);
                    }
                }
            }
            if !reached {
                break;
            }
            let mut v = t;
            while v != s {
                let arc = ws.parent[v];
                g.push(arc, 1);
                v = g.arc_tail(arc);
            }
            flow += 1;
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_flow() {
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 2);
        g.add_arc(0, 2, 2);
        g.add_arc(1, 3, 2);
        g.add_arc(2, 3, 2);
        assert_eq!(BfsFordFulkerson.solve(&mut g, 0, 3, u64::MAX), 4);
    }

    #[test]
    fn unit_augmentation_respects_limit() {
        let mut g = FlowGraph::new(2);
        g.add_arc(0, 1, 1_000_000);
        // would be pathological without a limit; with d=3 it's 3 BFS passes
        assert_eq!(BfsFordFulkerson.solve(&mut g, 0, 1, 3), 3);
    }

    #[test]
    fn zero_when_disconnected() {
        let mut g = FlowGraph::new(2);
        assert_eq!(BfsFordFulkerson.solve(&mut g, 0, 1, 5), 0);
    }
}
