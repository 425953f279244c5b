//! Compact immutable CSR graph and its mutable builder.
//!
//! Design notes (following the paper's cost model, Sec. 4.4):
//!
//! * Node ids are `u32` — the paper's largest graph (Twitter, 20M nodes)
//!   fits comfortably, and halving the id width halves the adjacency
//!   footprint, which is what BFS-bound workloads are limited by.
//! * Adjacency is a single `Box<[u32]>` indexed by a `Box<[u64]>` offset
//!   array (`|V|+1` entries). Neighbor lists are sorted, enabling
//!   `O(log d)` edge queries.
//! * The graph is undirected and simple: every edge is stored in both
//!   endpoints' lists; self-loops and parallel edges are rejected or
//!   deduplicated at build time.
//! * The structural fingerprint is a *set hash*: `mix(|V|)` plus the
//!   wrapping sum of `mix` over every directed arc. Each constructor
//!   sets it once — a build or decode by one pass over the arrays,
//!   [`CsrGraph::with_edges`] by adding the new arcs' shares to the
//!   parent's value — and [`CsrGraph::fingerprint`] reads it back.

/// Node identifier (dense, `0..n`).
pub type NodeId = u32;

/// An immutable undirected simple graph in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `v`'s neighbor slice.
    offsets: Box<[u64]>,
    /// Concatenated, per-node-sorted adjacency.
    neighbors: Box<[NodeId]>,
    /// [`hash_all_arcs`] of the two arrays, kept from construction.
    fingerprint: u64,
}

/// The splitmix64 step: a bijective 64-bit mixer, so no two distinct
/// arcs contribute the same term to the fingerprint.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The directed arc `(u, v)`'s share of the fingerprint.
#[inline]
fn arc_share(u: NodeId, v: NodeId) -> u64 {
    mix(u64::from(u) << 32 | u64::from(v))
}

/// The fingerprint of a CSR, by one pass over every arc:
/// `mix(|V|) + Σ mix(u << 32 | v)`, wrapping. The sum does not depend
/// on the order arcs are visited in, which is what lets
/// [`CsrGraph::with_edges`] extend a parent's value by the new arcs
/// alone. The only full pass; every constructor that cannot derive
/// the value goes through [`CsrGraph::from_parts`], which calls it.
fn hash_all_arcs(offsets: &[u64], neighbors: &[NodeId]) -> u64 {
    let n = offsets.len() - 1;
    let mut h = mix(n as u64);
    for u in 0..n {
        let row = &neighbors[offsets[u] as usize..offsets[u + 1] as usize];
        for &v in row {
            h = h.wrapping_add(arc_share(u as NodeId, v));
        }
    }
    h
}

impl CsrGraph {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Does the undirected edge `{u, v}` exist? `O(log deg)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Probe the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Sum of degrees (`2|E|`), useful for average-degree reporting.
    #[inline]
    pub fn degree_sum(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// 64-bit structural fingerprint: `mix(|V|)` plus the wrapping sum
    /// of `mix(u << 32 | v)` over every directed arc `(u, v)`, with
    /// `mix` the splitmix64 step (see the [module docs](self)). `O(1)`:
    /// the value is set when the graph is constructed. Two graphs with
    /// equal fingerprints are the same graph for all practical
    /// purposes — used to pin density caches to a topology, where
    /// node/edge *counts* alone would collide (e.g. [`crate::perturb`]
    /// swaps edges count-neutrally).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Average degree `2|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.degree_sum() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Resident heap bytes of the CSR arrays (offset directory +
    /// adjacency), for memory reporting. Excludes the `size_of::<Self>`
    /// header — this is the part that scales with the graph.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
    }

    /// Assemble a graph directly from finished CSR arrays.
    ///
    /// Crate-internal: callers ([`crate::container`] decode,
    /// [`crate::generators`] streaming builds) must uphold the CSR
    /// invariants — `offsets` is a non-decreasing prefix-sum array with
    /// `offsets[0] == 0` and `offsets[n] == neighbors.len()`, each
    /// per-node range is strictly sorted, in-range, self-loop-free and
    /// symmetric. Debug builds spot-check the cheap ones. Hashes every
    /// arc once for the fingerprint.
    pub(crate) fn from_parts(offsets: Box<[u64]>, neighbors: Box<[NodeId]>) -> CsrGraph {
        let fingerprint = hash_all_arcs(&offsets, &neighbors);
        CsrGraph::from_hashed_parts(offsets, neighbors, fingerprint)
    }

    /// [`CsrGraph::from_parts`] for a caller that already knows the
    /// arrays' fingerprint (a splice, a decompression). Debug builds
    /// recompute it to check.
    pub(crate) fn from_hashed_parts(
        offsets: Box<[u64]>,
        neighbors: Box<[NodeId]>,
        fingerprint: u64,
    ) -> CsrGraph {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(fingerprint, hash_all_arcs(&offsets, &neighbors));
        CsrGraph {
            offsets,
            neighbors,
            fingerprint,
        }
    }

    /// Rebuild a [`GraphBuilder`] seeded with this graph's edges — the
    /// escape hatch for mutation (used by [`crate::perturb`]).
    pub fn to_builder(&self) -> GraphBuilder {
        let mut b = GraphBuilder::new(self.num_nodes());
        for (u, v) in self.edges() {
            b.add_edge(u, v);
        }
        b
    }

    /// New graph with `extra` edges added (duplicates of existing
    /// edges are no-ops). This is the snapshot-ingestion primitive:
    /// the receiver is untouched, so readers holding it keep a
    /// consistent view while the returned graph becomes the next
    /// version.
    ///
    /// The result is a sorted splice of the receiver's arrays, not a
    /// rebuild: the delta becomes a sorted, deduplicated list of
    /// directed arcs that are genuinely new, rows without such an arc
    /// are block-copied, and each touched row is a two-way merge whose
    /// runs of old neighbors are block-copied too. Cost is one pass of
    /// `memcpy` over the `O(|V| + |E|)` arrays plus
    /// `O(δ (log δ + log d_max))` for a `δ`-edge delta — no edge list
    /// is materialised, no existing row is re-sorted, and the
    /// fingerprint is the receiver's plus the new arcs' shares, so no
    /// row is re-hashed. The arrays and fingerprint are identical to
    /// what `to_builder()` + `extend_edges(extra)` + `build()` produces.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints (validate with
    /// [`CsrGraph::check_edges`] first on untrusted input).
    pub fn with_edges(&self, extra: &[(NodeId, NodeId)]) -> CsrGraph {
        let n = self.num_nodes();
        // Both directions of every genuinely new edge, row-major.
        let mut arcs: Vec<(NodeId, NodeId)> = Vec::with_capacity(2 * extra.len());
        for &(u, v) in extra {
            assert_ne!(u, v, "self-loop at node {u}");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for {n} nodes"
            );
            if !self.has_edge(u, v) {
                arcs.extend([(u, v), (v, u)]);
            }
        }
        arcs.sort_unstable();
        arcs.dedup();
        let fingerprint = arcs.iter().fold(self.fingerprint, |h, &(u, v)| {
            h.wrapping_add(arc_share(u, v))
        });

        let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
        let mut neighbors: Vec<NodeId> = Vec::with_capacity(self.neighbors.len() + arcs.len());
        // Rows below `next_row` are emitted; every later offset is the
        // old one shifted by the arcs inserted so far.
        let mut next_row = 0usize;
        let mut shift = 0u64;
        let mut rest = arcs.as_slice();
        while let Some(&(row, _)) = rest.first() {
            let (added, tail) = rest.split_at(rest.partition_point(|a| a.0 == row));
            rest = tail;
            let row = row as usize;
            offsets.extend(self.offsets[next_row..=row].iter().map(|&o| o + shift));
            let (lo, hi) = (self.offsets[row] as usize, self.offsets[row + 1] as usize);
            neighbors.extend_from_slice(&self.neighbors[self.offsets[next_row] as usize..lo]);
            // Merge the old row with its new neighbors; the two are
            // disjoint because present edges were dropped above.
            let mut old = &self.neighbors[lo..hi];
            for &(_, v) in added {
                let (below, above) = old.split_at(old.partition_point(|&w| w < v));
                neighbors.extend_from_slice(below);
                neighbors.push(v);
                old = above;
            }
            neighbors.extend_from_slice(old);
            shift += added.len() as u64;
            next_row = row + 1;
        }
        offsets.extend(self.offsets[next_row..].iter().map(|&o| o + shift));
        neighbors.extend_from_slice(&self.neighbors[self.offsets[next_row] as usize..]);
        CsrGraph::from_hashed_parts(
            offsets.into_boxed_slice(),
            neighbors.into_boxed_slice(),
            fingerprint,
        )
    }

    /// Validate an edge delta without applying it: every endpoint in
    /// range and no self-loops. Returns the first offending edge.
    pub fn check_edges(&self, edges: &[(NodeId, NodeId)]) -> Result<(), EdgeError> {
        let n = self.num_nodes();
        for &(u, v) in edges {
            if u == v {
                return Err(EdgeError::SelfLoop { node: u });
            }
            if u as usize >= n || v as usize >= n {
                return Err(EdgeError::OutOfRange {
                    edge: (u, v),
                    num_nodes: n,
                });
            }
        }
        Ok(())
    }
}

/// Why an edge delta is invalid for a given graph
/// (see [`CsrGraph::check_edges`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeError {
    /// Both endpoints are the same node.
    SelfLoop {
        /// The looping node.
        node: NodeId,
    },
    /// An endpoint is not a node of the graph.
    OutOfRange {
        /// The offending edge.
        edge: (NodeId, NodeId),
        /// The graph's node count.
        num_nodes: usize,
    },
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            EdgeError::OutOfRange { edge, num_nodes } => write!(
                f,
                "edge ({},{}) out of range for {num_nodes} nodes",
                edge.0, edge.1
            ),
        }
    }
}

impl std::error::Error for EdgeError {}

/// Mutable edge-list accumulator that [`GraphBuilder::build`]s into a
/// [`CsrGraph`].
///
/// Self-loops are rejected eagerly (panic — they are always a bug in
/// this codebase); parallel edges are deduplicated at build time.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Normalized `(min, max)` pairs; may contain duplicates until build.
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Builder for a graph over `num_nodes` nodes (ids `0..num_nodes`).
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            num_nodes <= u32::MAX as usize,
            "node ids are u32; {num_nodes} nodes do not fit"
        );
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Builder with preallocated edge capacity.
    pub fn with_capacity(num_nodes: usize, edge_capacity: usize) -> Self {
        let mut b = Self::new(num_nodes);
        b.edges.reserve(edge_capacity);
        b
    }

    /// Number of nodes this builder was created for.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges added so far (before deduplication).
    #[inline]
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add the undirected edge `{u, v}`. Duplicates are allowed and
    /// removed at build time.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert_ne!(u, v, "self-loop at node {u}");
        assert!(
            (u as usize) < self.num_nodes && (v as usize) < self.num_nodes,
            "edge ({u},{v}) out of range for {} nodes",
            self.num_nodes
        );
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Add every edge from an iterator.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (NodeId, NodeId)>) {
        for (u, v) in it {
            self.add_edge(u, v);
        }
    }

    /// Check whether `{u, v}` has been added (linear scan — intended for
    /// tests and small builders; large-scale generators use their own
    /// membership structures).
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = (u.min(v), u.max(v));
        self.edges.contains(&key)
    }

    /// Finalize into a CSR graph: sort, dedup, count, fill.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.num_nodes;
        let mut degrees = vec![0u64; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }

        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degrees[v];
        }

        let total = offsets[n] as usize;
        let mut neighbors = vec![0 as NodeId; total];
        // `cursor[v]` = next write slot in v's range.
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Edges were emitted in sorted (u, v) order, so each node's
        // lower-id neighbors arrive sorted, but the mix of "as source"
        // and "as target" writes can interleave out of order; sort each
        // range to establish the invariant.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            neighbors[lo..hi].sort_unstable();
        }

        CsrGraph::from_parts(offsets.into_boxed_slice(), neighbors.into_boxed_slice())
    }
}

/// Build a CSR graph from a flat `[u0, v0, u1, v1, ...]` endpoint
/// array of **distinct, loop-free, in-range** edges.
///
/// This is the streaming path used by the large-scale generators: a
/// generator that can guarantee its edges are already unique skips
/// [`GraphBuilder`]'s sort + dedup pass *and* its second copy of the
/// edge list, so peak heap stays at the endpoint array plus the final
/// CSR arrays (~16 B/edge) instead of ~24 B/edge. The invariants are
/// the caller's contract; they are `debug_assert`ed here.
pub(crate) fn from_endpoint_pairs(num_nodes: usize, endpoints: &[NodeId]) -> CsrGraph {
    debug_assert!(endpoints.len().is_multiple_of(2), "endpoints come in pairs");
    let mut degrees = vec![0u32; num_nodes];
    for &v in endpoints {
        degrees[v as usize] += 1;
    }
    let mut offsets = vec![0u64; num_nodes + 1];
    for v in 0..num_nodes {
        offsets[v + 1] = offsets[v] + u64::from(degrees[v]);
    }
    let mut neighbors = vec![0 as NodeId; endpoints.len()];
    // Reuse `degrees` as the per-node write cursor (now counting up
    // from each node's offset) rather than allocating another array.
    degrees.iter_mut().for_each(|d| *d = 0);
    let mut cursor = degrees;
    for pair in endpoints.chunks_exact(2) {
        let (u, v) = (pair[0], pair[1]);
        debug_assert_ne!(u, v, "self-loop at node {u}");
        neighbors[(offsets[u as usize] + u64::from(cursor[u as usize])) as usize] = v;
        cursor[u as usize] += 1;
        neighbors[(offsets[v as usize] + u64::from(cursor[v as usize])) as usize] = u;
        cursor[v as usize] += 1;
    }
    drop(cursor);
    for v in 0..num_nodes {
        let range = &mut neighbors[offsets[v] as usize..offsets[v + 1] as usize];
        range.sort_unstable();
        debug_assert!(
            range.windows(2).all(|w| w[0] < w[1]),
            "duplicate edge incident to node {v}"
        );
    }
    CsrGraph::from_parts(offsets.into_boxed_slice(), neighbors.into_boxed_slice())
}

/// Build a graph directly from an edge list (test/example convenience).
pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(num_nodes, edges.len());
    b.extend_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 2-0 triangle; 2-3-4 tail.
        from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(4), 1);
        assert_eq!(g.degree_sum(), 10);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        for (u, v) in g.edges() {
            assert!(g.neighbors(u).contains(&v));
            assert!(g.neighbors(v).contains(&u));
        }
        for v in g.nodes() {
            let ns = g.neighbors(v);
            assert!(
                ns.windows(2).all(|w| w[0] < w[1]),
                "node {v} not sorted/dedup"
            );
        }
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(0, 4));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once_ordered() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn isolated_nodes_supported() {
        let g = from_edges(4, &[(0, 1)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(3), &[] as &[NodeId]);
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn to_builder_round_trips() {
        let g = triangle_plus_tail();
        let g2 = g.to_builder().build();
        assert_eq!(g, g2);
    }

    #[test]
    fn with_edges_adds_without_mutating_receiver() {
        let g = triangle_plus_tail();
        let g2 = g.with_edges(&[(0, 4), (0, 1)]); // one new, one duplicate
        assert_eq!(g.num_edges(), 5, "receiver untouched");
        assert_eq!(g2.num_edges(), 6);
        assert!(g2.has_edge(0, 4));
        assert_eq!(
            g2,
            from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (0, 4)])
        );
    }

    /// Full `GraphBuilder` rebuild of the graph's edges plus `extra`:
    /// the oracle the `with_edges` splice must equal array for array.
    fn rebuilt_with_edges(g: &CsrGraph, extra: &[(NodeId, NodeId)]) -> CsrGraph {
        let mut b = g.to_builder();
        b.extend_edges(extra.iter().copied());
        b.build()
    }

    #[test]
    fn with_edges_splice_equals_rebuild_on_random_graphs_and_deltas() {
        use crate::generators::{barabasi_albert, erdos_renyi_gnm};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5711CE);
        for round in 0..80 {
            // A hub-heavy or a sparse random core, plus three trailing
            // isolated nodes (so node n−1 starts with an empty row).
            let core = rng.gen_range(6..70usize);
            let base = if round % 2 == 0 {
                barabasi_albert(core, 2, &mut rng)
            } else {
                erdos_renyi_gnm(core, core / 2, &mut rng)
            };
            let n = core + 3;
            let g = from_edges(n, &base.edges().collect::<Vec<_>>());
            let last = n as NodeId - 1;
            let hub = g.nodes().max_by_key(|&v| g.degree(v)).unwrap();
            let near_hub = hub.max(2) - 1; // a nonzero node beside the hub's id

            let mut deltas: Vec<Vec<(NodeId, NodeId)>> = vec![
                // Empty delta.
                vec![],
                // Every edge already present.
                g.edges().take(4).collect(),
                // Both orientations of one new edge.
                vec![(0, last), (last, 0)],
                // Duplicates inside the delta.
                vec![(1, last), (1, last), (last, 1), (1, last)],
                // Many new edges on one row: fill the hub's.
                g.nodes().filter(|&v| v != hub).map(|v| (hub, v)).collect(),
                // Fill an empty row, the last one.
                g.nodes()
                    .filter(|&v| v != last)
                    .map(|v| (v, last))
                    .collect(),
                // Node 0, node n−1 and two isolated nodes as endpoints.
                vec![(0, last), (last - 1, last - 2), (0, near_hub)],
            ];
            // Random mixtures of new, present and repeated edges.
            for _ in 0..6 {
                let k = rng.gen_range(1..12usize);
                let mut delta = Vec::with_capacity(k + 2);
                for _ in 0..k {
                    let u = rng.gen_range(0..n as NodeId);
                    let v = rng.gen_range(0..n as NodeId);
                    if u != v {
                        delta.push((u, v));
                    }
                }
                delta.extend(g.edges().nth(rng.gen_range(0..g.num_edges())));
                delta.extend(delta.first().map(|&(u, v)| (v, u)));
                deltas.push(delta);
            }

            for delta in &deltas {
                let spliced = g.with_edges(delta);
                let oracle = rebuilt_with_edges(&g, delta);
                assert_eq!(spliced, oracle, "round {round} delta {delta:?}");
                assert_eq!(spliced.fingerprint(), oracle.fingerprint());
                // Splicing onto a spliced graph keeps working.
                let again = spliced.with_edges(&[(hub, last), (0, near_hub)]);
                assert_eq!(
                    again,
                    rebuilt_with_edges(&oracle, &[(hub, last), (0, near_hub)])
                );
            }
        }
    }

    /// The stored fingerprint is the one value every path to the same
    /// graph agrees on: the splice's `O(δ)` upkeep, a full rebuild,
    /// packing, decompression and a v02 container round trip.
    #[test]
    fn fingerprint_upkeep_agrees_with_every_constructor() {
        use crate::compressed::CompressedCsr;
        use crate::container::{decode_tgraph, decode_tgraph_csr, encode_tgraph};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xF1_9E);
        for case in 0..128 {
            // Every fourth |V| is a multiple of 64; the rest mostly not.
            let n = if case % 4 == 0 {
                64 * rng.gen_range(1..4usize)
            } else {
                rng.gen_range(2..200usize)
            };
            // Edges avoid the top `spare` ids, so isolated nodes exist.
            let spare = rng.gen_range(1..4usize).min(n - 1);
            let core = (n - spare) as NodeId;
            let pair = |rng: &mut StdRng, hi: NodeId| loop {
                let (u, v) = (rng.gen_range(0..hi), rng.gen_range(0..hi));
                if u != v {
                    break (u, v);
                }
            };
            let base: Vec<_> = (0..rng.gen_range(0..3 * n))
                .filter(|_| core > 1)
                .map(|_| pair(&mut rng, core))
                .collect();
            let g = from_edges(n, &base);
            let n_id = n as NodeId;

            let fresh: Vec<_> = (0..rng.gen_range(1..8))
                .map(|_| pair(&mut rng, n_id))
                .filter(|&(u, v)| !g.has_edge(u, v))
                .collect();
            let present: Vec<_> = g.edges().take(rng.gen_range(0..6)).collect();
            let repeated: Vec<_> = fresh
                .iter()
                .flat_map(|&(u, v)| [(u, v), (v, u), (u, v)])
                .collect();
            let mixed: Vec<_> = fresh
                .iter()
                .chain(&present)
                .chain(&repeated)
                .copied()
                .collect();
            for (kind, delta) in [
                ("empty", vec![]),
                ("new", fresh.clone()),
                ("present", present),
                ("repeated", repeated),
                ("mixed", mixed),
            ] {
                let ctx = format!("case {case} (n = {n}) {kind} delta {delta:?}");
                let spliced = g.with_edges(&delta);
                let fp = spliced.fingerprint();
                assert_eq!(
                    fp,
                    hash_all_arcs(&spliced.offsets, &spliced.neighbors),
                    "{ctx}"
                );
                assert_eq!(fp, rebuilt_with_edges(&g, &delta).fingerprint(), "{ctx}");
                let packed = CompressedCsr::from_graph(&spliced);
                assert_eq!(fp, packed.fingerprint(), "{ctx}");
                assert_eq!(fp, packed.to_csr().fingerprint(), "{ctx}");
                let bytes = encode_tgraph(&packed, None);
                assert_eq!(
                    fp,
                    decode_tgraph(&bytes).unwrap().graph.fingerprint(),
                    "{ctx}"
                );
                let plain = decode_tgraph_csr(&bytes).unwrap().graph;
                assert_eq!(plain, spliced, "{ctx}");
                if kind == "empty" || kind == "present" || fresh.is_empty() {
                    assert_eq!(fp, g.fingerprint(), "{ctx}");
                } else {
                    assert_ne!(fp, g.fingerprint(), "{ctx}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn with_edges_rejects_self_loops() {
        let _ = triangle_plus_tail().with_edges(&[(0, 4), (3, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_edges_rejects_out_of_range_endpoints() {
        let _ = triangle_plus_tail().with_edges(&[(0, 5)]);
    }

    #[test]
    fn fingerprint_distinguishes_count_equal_graphs() {
        // Same node and edge counts, different topology.
        let g1 = from_edges(4, &[(0, 1), (2, 3)]);
        let g2 = from_edges(4, &[(0, 2), (1, 3)]);
        assert_ne!(g1.fingerprint(), g2.fingerprint());
        assert_eq!(g1.fingerprint(), g1.clone().fingerprint());
        assert_eq!(
            g1.fingerprint(),
            g1.to_builder().build().fingerprint(),
            "rebuild-stable"
        );
    }

    #[test]
    fn check_edges_catches_bad_deltas() {
        let g = triangle_plus_tail();
        assert_eq!(g.check_edges(&[(0, 4), (1, 3)]), Ok(()));
        assert_eq!(
            g.check_edges(&[(2, 2)]),
            Err(EdgeError::SelfLoop { node: 2 })
        );
        let err = g.check_edges(&[(0, 9)]).unwrap_err();
        assert_eq!(
            err,
            EdgeError::OutOfRange {
                edge: (0, 9),
                num_nodes: 5
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn builder_contains_edge_is_order_insensitive() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1);
        assert!(b.contains_edge(1, 2));
        assert!(b.contains_edge(2, 1));
        assert!(!b.contains_edge(0, 1));
    }
}
