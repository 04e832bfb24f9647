//! Dinic's algorithm: BFS level graph + DFS blocking flow.

use crate::graph::FlowGraph;
use crate::solver::MaxFlowSolver;
use crate::workspace::{prepare, Workspace};

/// Dinic's algorithm, `O(|V|²|E|)` worst case and far better in practice;
/// `O(√|E|·|E|)` on unit-capacity graphs. The workspace default.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dinic;

impl Dinic {
    fn bfs_levels(
        g: &FlowGraph,
        s: usize,
        t: usize,
        level: &mut [u32],
        queue: &mut Vec<u32>,
    ) -> bool {
        level.fill(u32::MAX);
        level[s] = 0;
        queue.clear();
        queue.push(s as u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &arc in g.arcs_from(u) {
                let v = g.arc_head(arc);
                if level[v] == u32::MAX && g.residual(arc) > 0 {
                    level[v] = level[u] + 1;
                    if v == t {
                        return true;
                    }
                    queue.push(v as u32);
                }
            }
        }
        false
    }

    /// Iterative DFS pushing up to `limit` units along level-increasing arcs.
    fn blocking_flow(
        g: &mut FlowGraph,
        s: usize,
        t: usize,
        limit: u64,
        level: &[u32],
        iter: &mut [usize],
        path: &mut Vec<u32>,
    ) -> u64 {
        let mut total = 0u64;
        // path holds the arcs of the current partial path from s
        path.clear();
        let mut u = s;
        while total < limit {
            if u == t {
                // augment along path by the bottleneck residual
                let aug = path
                    .iter()
                    .map(|&a| g.residual(a))
                    .min()
                    .unwrap_or_else(|| unreachable!("path to t cannot be empty"))
                    .min(limit - total);
                for &a in path.iter() {
                    g.push(a, aug);
                }
                total += aug;
                // retreat to the first saturated arc
                let mut cut = 0;
                for (i, &a) in path.iter().enumerate() {
                    if g.residual(a) == 0 {
                        cut = i;
                        break;
                    }
                }
                path.truncate(cut);
                u = match path.last() {
                    Some(&a) => g.arc_head(a),
                    None => s,
                };
                continue;
            }
            // advance along the next admissible arc out of u
            let mut advanced = false;
            while iter[u] < g.arcs_from(u).len() {
                let arc = g.arcs_from(u)[iter[u]];
                let v = g.arc_head(arc);
                if g.residual(arc) > 0 && level[v] == level[u] + 1 {
                    path.push(arc);
                    u = v;
                    advanced = true;
                    break;
                }
                iter[u] += 1;
            }
            if advanced {
                continue;
            }
            // dead end: retreat
            if u == s {
                break;
            }
            let arc = path
                .pop()
                .unwrap_or_else(|| unreachable!("non-source dead end must have a path"));
            u = g.arc_tail(arc);
            iter[u] += 1; // skip the arc that led to the dead end
        }
        total
    }
}

impl MaxFlowSolver for Dinic {
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
        prepare(&mut ws.level, n, u32::MAX);
        prepare(&mut ws.cursor, n, 0);
        let mut flow = 0u64;
        while flow < limit && Self::bfs_levels(g, s, t, &mut ws.level, &mut ws.queue) {
            ws.cursor.fill(0);
            let pushed = Self::blocking_flow(
                g,
                s,
                t,
                limit - flow,
                &ws.level,
                &mut ws.cursor,
                &mut ws.path,
            );
            if pushed == 0 {
                break;
            }
            flow += pushed;
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic example: max flow 19.
    fn clrs_graph() -> FlowGraph {
        let mut g = FlowGraph::new(6);
        g.add_arc(0, 1, 16);
        g.add_arc(0, 2, 13);
        g.add_arc(1, 2, 10);
        g.add_arc(2, 1, 4);
        g.add_arc(1, 3, 12);
        g.add_arc(3, 2, 9);
        g.add_arc(2, 4, 14);
        g.add_arc(4, 3, 7);
        g.add_arc(3, 5, 20);
        g.add_arc(4, 5, 4);
        g
    }

    #[test]
    fn clrs_max_flow_is_23() {
        let mut g = clrs_graph();
        assert_eq!(Dinic.solve(&mut g, 0, 5, u64::MAX), 23);
        assert_eq!(g.check_conservation(0, 5).unwrap(), 23);
    }

    #[test]
    fn limit_stops_early() {
        let mut g = clrs_graph();
        assert_eq!(Dinic.solve(&mut g, 0, 5, 5), 5);
        assert_eq!(g.check_conservation(0, 5).unwrap(), 5);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 10);
        g.add_arc(2, 3, 10);
        assert_eq!(Dinic.solve(&mut g, 0, 3, u64::MAX), 0);
    }

    #[test]
    fn parallel_arcs_add_up() {
        let mut g = FlowGraph::new(2);
        g.add_arc(0, 1, 3);
        g.add_arc(0, 1, 4);
        assert_eq!(Dinic.solve(&mut g, 0, 1, u64::MAX), 7);
    }

    #[test]
    fn undirected_edge_flows_both_ways() {
        let mut g = FlowGraph::new(3);
        g.add_undirected(0, 1, 5);
        g.add_undirected(2, 1, 5); // declared "backwards"
        assert_eq!(Dinic.solve(&mut g, 0, 2, u64::MAX), 5);
    }

    #[test]
    fn source_equals_sink_returns_limit() {
        let mut g = FlowGraph::new(1);
        assert_eq!(Dinic.solve(&mut g, 0, 0, 7), 7);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut g = clrs_graph();
        assert_eq!(Dinic.solve(&mut g, 0, 5, u64::MAX), 23);
        g.reset();
        assert_eq!(Dinic.solve(&mut g, 0, 5, u64::MAX), 23);
    }

    #[test]
    fn zigzag_needs_back_edges() {
        // Flow must cancel along the middle arc to reach 2.
        let mut g = FlowGraph::new(4);
        g.add_arc(0, 1, 1);
        g.add_arc(0, 2, 1);
        g.add_arc(1, 2, 1);
        g.add_arc(1, 3, 1);
        g.add_arc(2, 3, 1);
        assert_eq!(Dinic.solve(&mut g, 0, 3, u64::MAX), 2);
    }
}
