//! The benchmark's own reference breadth-first search.
//!
//! `density.edges_scanned_per_ref` is *computed*, not measured: it is
//! the number of adjacency entries a plain level-by-level `h`-hop
//! search reads, so it states the work a density kernel has to do
//! independently of how any kernel in the repository does it.

use crate::api::{CsrGraph, NodeId};

/// Visited-stamp scratch reused across searches on one graph.
pub struct RefBfs {
    stamp: Vec<u32>,
    epoch: u32,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

/// What one search saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reach {
    /// Nodes within `h` hops of the sources (sources included).
    pub nodes: u64,
    /// Adjacency entries read: the degree sum of every node expanded,
    /// i.e. of every node at distance `< h`.
    pub edges_scanned: u64,
}

impl RefBfs {
    /// Scratch for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        RefBfs {
            stamp: vec![0; num_nodes],
            epoch: 0,
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// `h`-hop search from `sources`; reached nodes are appended to
    /// `out` when one is given.
    pub fn search(
        &mut self,
        g: &CsrGraph,
        sources: &[NodeId],
        h: u32,
        mut out: Option<&mut Vec<NodeId>>,
    ) -> Reach {
        self.epoch += 1;
        let epoch = self.epoch;
        self.frontier.clear();
        for &s in sources {
            if self.stamp[s as usize] != epoch {
                self.stamp[s as usize] = epoch;
                self.frontier.push(s);
            }
        }
        let mut reach = Reach {
            nodes: 0,
            edges_scanned: 0,
        };
        for level in 0..=h {
            reach.nodes += self.frontier.len() as u64;
            if let Some(out) = out.as_deref_mut() {
                out.extend_from_slice(&self.frontier);
            }
            if level == h {
                break;
            }
            self.next.clear();
            for &u in &self.frontier {
                let nbrs = g.neighbors(u);
                reach.edges_scanned += nbrs.len() as u64;
                for &v in nbrs {
                    if self.stamp[v as usize] != epoch {
                        self.stamp[v as usize] = epoch;
                        self.next.push(v);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::graph_from_edges;

    /// 0 - 1 - 2 - 3 - 4 plus a pendant 1 - 5.
    fn path_with_pendant() -> CsrGraph {
        graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    }

    #[test]
    fn counts_nodes_and_adjacency_reads_per_level() {
        let g = path_with_pendant();
        let mut bfs = RefBfs::new(6);
        // h = 0: just the source, nothing expanded.
        assert_eq!(
            bfs.search(&g, &[0], 0, None),
            Reach {
                nodes: 1,
                edges_scanned: 0
            }
        );
        // h = 1 from 0: expands 0 (degree 1), reaches {0, 1}.
        assert_eq!(
            bfs.search(&g, &[0], 1, None),
            Reach {
                nodes: 2,
                edges_scanned: 1
            }
        );
        // h = 2 from 0: expands 0 and 1 (degrees 1 + 3), reaches {0,1,2,5}.
        assert_eq!(
            bfs.search(&g, &[0], 2, None),
            Reach {
                nodes: 4,
                edges_scanned: 4
            }
        );
    }

    #[test]
    fn multi_source_dedupes_and_lists_the_reach() {
        let g = path_with_pendant();
        let mut bfs = RefBfs::new(6);
        let mut out = Vec::new();
        let r = bfs.search(&g, &[0, 4, 0], 1, Some(&mut out));
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 3, 4]);
        assert_eq!(r.nodes, 4);
        assert_eq!(r.edges_scanned, 2);
    }

    #[test]
    fn scratch_is_reusable_and_saturates_on_small_graphs() {
        let g = path_with_pendant();
        let mut bfs = RefBfs::new(6);
        let first = bfs.search(&g, &[2], 10, None);
        assert_eq!(first.nodes, 6);
        // Every node gets expanded once: twice the edge count.
        assert_eq!(first.edges_scanned, 10);
        assert_eq!(bfs.search(&g, &[2], 10, None), first);
    }
}
