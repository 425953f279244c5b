//! The [`Adjacency`] abstraction every BFS kernel runs against.
//!
//! The density hot path only ever *streams* a node's sorted neighbor
//! list — it never indexes into the middle of one. That access pattern
//! is the whole contract, so the kernels ([`crate::bfs`]) and the
//! vicinity index ([`crate::vicinity`]) are generic over this trait
//! instead of the concrete [`CsrGraph`]. Two implementations exist:
//!
//! * [`CsrGraph`] — plain CSR; `neighbors_iter` is a slice iterator,
//!   so the generic kernels compile to exactly the code they had when
//!   they took `&CsrGraph` directly (asserted by the bit-identity
//!   suite in `tests/kernels.rs`).
//! * [`crate::compressed::CompressedCsr`] — delta-encoded,
//!   bit-packed adjacency; `neighbors_iter` is a streaming decoder
//!   that never materializes a row, and `for_each_neighbor` is its
//!   branch-free internal-iteration fast path.
//!
//! All methods are reads over immutable state; the `Sync + Send`
//! supertraits are what let one graph instance back every thread of a
//! batch run (see [`crate::pool`]).

use crate::csr::{CsrGraph, NodeId};

/// An immutable undirected graph whose per-node sorted neighbor lists
/// can be streamed. See the [module docs](self) for the contract.
///
/// Implementations must describe a *simple* undirected graph with
/// `num_nodes() ≤ u32::MAX` nodes: `neighbors_iter(v)` yields `v`'s
/// neighbors in strictly ascending id order, exactly `degree(v)` of
/// them, all `< num_nodes()`.
pub trait Adjacency: Sync + Send {
    /// Number of nodes `|V|`.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges `|E|`.
    fn num_edges(&self) -> usize;

    /// Degree of `v`.
    fn degree(&self, v: NodeId) -> usize;

    /// Sum of all degrees (`2|E|`), precomputed — the bitset kernel's
    /// direction heuristic reads it every level.
    fn degree_sum(&self) -> u64;

    /// 64-bit structural fingerprint of the *plain CSR content* this
    /// graph represents (see [`CsrGraph::fingerprint`]). Equal
    /// fingerprints ⇒ identical topology, regardless of encoding —
    /// the invariant that lets density caches built against one
    /// encoding be pinned to the other. Both implementations store the
    /// value from construction, so this is `O(1)`.
    fn fingerprint(&self) -> u64;

    /// Estimated resident heap bytes of the adjacency structure
    /// (directory + neighbor storage), for memory reporting.
    fn resident_bytes(&self) -> usize;

    /// Stream `v`'s neighbors in strictly ascending id order.
    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// Internal-iteration variant of [`neighbors_iter`]: call `f(w)`
    /// for each neighbor of `v`, ascending. The BFS kernels' hot loops
    /// use this so an encoding can run its tightest decode loop
    /// (chunk-level constants hoisted, no per-item iterator state);
    /// the default just drains `neighbors_iter`.
    ///
    /// [`neighbors_iter`]: Adjacency::neighbors_iter
    #[inline]
    fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        for w in self.neighbors_iter(v) {
            f(w);
        }
    }

    /// Average degree `2|E| / |V|`.
    fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.degree_sum() as f64 / self.num_nodes() as f64
        }
    }
}

impl Adjacency for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn degree_sum(&self) -> u64 {
        CsrGraph::degree_sum(self)
    }

    #[inline]
    fn fingerprint(&self) -> u64 {
        CsrGraph::fingerprint(self)
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        CsrGraph::resident_bytes(self)
    }

    #[inline]
    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).iter().copied()
    }

    #[inline]
    fn average_degree(&self) -> f64 {
        CsrGraph::average_degree(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;

    fn wheel() -> CsrGraph {
        from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    }

    #[test]
    fn csr_impl_mirrors_inherent_methods() {
        let g = wheel();
        fn probe<G: Adjacency>(g: &G) -> (usize, usize, u64, f64, u64) {
            (
                g.num_nodes(),
                g.num_edges(),
                g.degree_sum(),
                g.average_degree(),
                g.fingerprint(),
            )
        }
        let (n, m, ds, avg, fp) = probe(&g);
        assert_eq!(n, 5);
        assert_eq!(m, 6);
        assert_eq!(ds, 12);
        assert!((avg - 2.4).abs() < 1e-12);
        assert_eq!(fp, g.fingerprint());
        assert!(g.resident_bytes() >= 12 * 4);
    }

    #[test]
    fn neighbors_iter_matches_slice() {
        let g = wheel();
        for v in g.nodes() {
            let streamed: Vec<NodeId> = Adjacency::neighbors_iter(&g, v).collect();
            assert_eq!(streamed, g.neighbors(v), "node {v}");
            assert_eq!(streamed.len(), Adjacency::degree(&g, v));
        }
    }

    #[test]
    fn for_each_neighbor_default_matches_iter() {
        let g = wheel();
        for v in g.nodes() {
            let mut pushed = Vec::new();
            Adjacency::for_each_neighbor(&g, v, |w| pushed.push(w));
            assert_eq!(pushed, g.neighbors(v), "node {v}");
        }
    }
}
