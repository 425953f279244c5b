//! Bounded shortest-path helpers.
//!
//! The event simulator (Sec. 5.2 of the paper) needs to "randomly pick a
//! node at that distance from v"; tests need ground-truth distances to
//! validate BFS. All helpers here are hop-bounded — the paper never
//! needs unbounded distances ("we focus on relatively small h values,
//! such as h = 1, 2, 3").

use crate::bfs::BfsScratch;
use crate::budget::Budget;
use crate::csr::{CsrGraph, NodeId};

/// Shortest-path distance from `u` to `v`, or `None` if it exceeds
/// `max_h` (or the nodes are disconnected within that horizon).
pub fn bounded_distance(
    g: &CsrGraph,
    scratch: &mut BfsScratch,
    u: NodeId,
    v: NodeId,
    max_h: u32,
) -> Option<u32> {
    let mut found = None;
    scratch
        .visit_h_vicinity(g, &[u], max_h, &Budget::unlimited(), |node, depth| {
            if node == v && found.is_none() {
                found = Some(depth);
            }
        })
        .expect("unlimited budget");
    found
}

/// All nodes at *exactly* `d` hops from `src` (empty when none).
pub fn nodes_at_distance(
    g: &CsrGraph,
    scratch: &mut BfsScratch,
    src: NodeId,
    d: u32,
) -> Vec<NodeId> {
    let mut out = Vec::new();
    scratch
        .visit_h_vicinity(g, &[src], d, &Budget::unlimited(), |node, depth| {
            if depth == d {
                out.push(node);
            }
        })
        .expect("unlimited budget");
    out
}

/// Hop distance from the node set `sources` (multi-source BFS), bounded
/// by `max_h`; entries beyond the horizon are `u32::MAX`.
pub fn distances_from_set(
    g: &CsrGraph,
    scratch: &mut BfsScratch,
    sources: &[NodeId],
    max_h: u32,
) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_nodes()];
    scratch
        .visit_h_vicinity(g, sources, max_h, &Budget::unlimited(), |node, depth| {
            dist[node as usize] = depth;
        })
        .expect("unlimited budget");
    dist
}

/// Connected-component labels (0-based, by discovery order).
pub fn connected_components(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut scratch = BfsScratch::new(n);
    let mut next = 0u32;
    for v in 0..n as NodeId {
        if label[v as usize] == u32::MAX {
            scratch
                .visit_h_vicinity(g, &[v], u32::MAX, &Budget::unlimited(), |u, _| {
                    label[u as usize] = next;
                })
                .expect("unlimited budget");
            next += 1;
        }
    }
    label
}

/// Is the graph connected? (Vacuously true for 0 or 1 nodes.)
pub fn is_connected(g: &CsrGraph) -> bool {
    if g.num_nodes() <= 1 {
        return true;
    }
    let labels = connected_components(g);
    labels.iter().all(|&l| l == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;

    fn path5() -> CsrGraph {
        from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bounded_distance_on_path() {
        let g = path5();
        let mut s = BfsScratch::new(5);
        assert_eq!(bounded_distance(&g, &mut s, 0, 0, 3), Some(0));
        assert_eq!(bounded_distance(&g, &mut s, 0, 3, 3), Some(3));
        assert_eq!(
            bounded_distance(&g, &mut s, 0, 4, 3),
            None,
            "beyond horizon"
        );
        assert_eq!(bounded_distance(&g, &mut s, 0, 4, 4), Some(4));
    }

    #[test]
    fn bounded_distance_disconnected() {
        let g = from_edges(4, &[(0, 1), (2, 3)]);
        let mut s = BfsScratch::new(4);
        assert_eq!(bounded_distance(&g, &mut s, 0, 3, 100), None);
    }

    #[test]
    fn nodes_at_distance_rings() {
        let g = path5();
        let mut s = BfsScratch::new(5);
        assert_eq!(nodes_at_distance(&g, &mut s, 2, 0), vec![2]);
        let mut d1 = nodes_at_distance(&g, &mut s, 2, 1);
        d1.sort_unstable();
        assert_eq!(d1, vec![1, 3]);
        let mut d2 = nodes_at_distance(&g, &mut s, 2, 2);
        d2.sort_unstable();
        assert_eq!(d2, vec![0, 4]);
        assert!(nodes_at_distance(&g, &mut s, 2, 3).is_empty());
    }

    #[test]
    fn distances_from_set_takes_minimum() {
        let g = path5();
        let mut s = BfsScratch::new(5);
        let d = distances_from_set(&g, &mut s, &[0, 4], 10);
        assert_eq!(d, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn distances_beyond_horizon_are_max() {
        let g = path5();
        let mut s = BfsScratch::new(5);
        let d = distances_from_set(&g, &mut s, &[0], 1);
        assert_eq!(d, vec![0, 1, u32::MAX, u32::MAX, u32::MAX]);
    }

    #[test]
    fn components_and_connectivity() {
        let g = from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        assert_ne!(labels[5], labels[3]);
        assert!(!is_connected(&g));
        assert!(is_connected(&path5()));
        assert!(is_connected(&from_edges(1, &[])));
        assert!(is_connected(&from_edges(0, &[])));
    }
}
