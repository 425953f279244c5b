//! The offline `|V^h_v|` vicinity-size index of Sec. 4.2.
//!
//! Rejection and importance sampling both need `|V^h_v|` for every event
//! node `v` and every vicinity level `h ≤ h_m`. The paper precomputes
//! these "offline by doing a h_m-hop BFS from each node in the graph",
//! noting the space cost is only `O(|V|)` per level and that the index
//! "can be efficiently updated as the graph changes". [`VicinityIndex`]
//! implements exactly that, including the incremental update.

use crate::adjacency::Adjacency;
use crate::bfs::{BfsKernel, BfsScratch};
use crate::budget::Budget;
use crate::csr::NodeId;
use crate::pool::PARALLEL_MIN_NODES;

/// Per-level vicinity node-set sizes for every node of a graph:
/// `sizes(h)[v] = |V^h_v|` (which always includes `v` itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VicinityIndex {
    max_level: u32,
    /// `levels[h-1][v]` = |V^h_v| ; `|V^0_v|` = 1 is implicit.
    levels: Vec<Vec<u32>>,
    /// Every node has an entry (false for [`VicinityIndex::build_for_nodes`]).
    complete: bool,
}

impl VicinityIndex {
    /// Build the index for levels `1..=max_level` with a single-threaded
    /// sweep (one `max_level`-hop BFS per node), picking the BFS kernel
    /// automatically.
    pub fn build<G: Adjacency>(g: &G, max_level: u32) -> Self {
        Self::build_with_kernel(g, max_level, BfsKernel::Auto)
    }

    /// [`VicinityIndex::build`] with an explicit scalar/bitset BFS
    /// kernel choice. Both kernels produce the identical index — the
    /// override exists for tests and benches.
    pub fn build_with_kernel<G: Adjacency>(g: &G, max_level: u32, kernel: BfsKernel) -> Self {
        assert!(max_level >= 1, "max_level must be at least 1");
        let n = g.num_nodes();
        let use_bitset = kernel.use_bitset(g, max_level);
        let mut levels = vec![vec![0u32; n]; max_level as usize];
        let mut scratch = BfsScratch::new(n);
        let mut counts = vec![0u32; max_level as usize + 1];
        for v in 0..n as NodeId {
            Self::fill_node(
                g,
                &mut scratch,
                v,
                max_level,
                &mut counts,
                &mut levels,
                use_bitset,
            );
        }
        VicinityIndex {
            max_level,
            levels,
            complete: true,
        }
    }

    /// Build the index with `threads` worker threads (scoped std
    /// threads; node ranges are partitioned statically). Graphs below
    /// [`PARALLEL_MIN_NODES`] fall back to the serial sweep — the
    /// threshold `tesc::batch` shares for its own fan-out decision.
    pub fn build_parallel<G: Adjacency>(g: &G, max_level: u32, threads: usize) -> Self {
        assert!(max_level >= 1, "max_level must be at least 1");
        let threads = threads.max(1);
        let n = g.num_nodes();
        if threads == 1 || n < PARALLEL_MIN_NODES {
            return Self::build(g, max_level);
        }
        let use_bitset = BfsKernel::Auto.use_bitset(g, max_level);
        let mut levels = vec![vec![0u32; n]; max_level as usize];
        {
            // Split each level vector into per-thread chunks. To keep the
            // borrow checker happy we transpose the work: each thread owns
            // a contiguous node range across all levels, communicated via
            // raw chunk splitting of the level slices.
            let chunk = n.div_ceil(threads);
            let mut level_chunks: Vec<Vec<&mut [u32]>> = Vec::with_capacity(threads);
            let mut rest: Vec<&mut [u32]> = levels.iter_mut().map(|l| l.as_mut_slice()).collect();
            for _ in 0..threads {
                let mut mine = Vec::with_capacity(max_level as usize);
                let mut remaining = Vec::with_capacity(max_level as usize);
                for slice in rest {
                    let split = chunk.min(slice.len());
                    let (a, b) = slice.split_at_mut(split);
                    mine.push(a);
                    remaining.push(b);
                }
                rest = remaining;
                level_chunks.push(mine);
            }
            std::thread::scope(|scope| {
                for (t, mine) in level_chunks.into_iter().enumerate() {
                    let start = (t * chunk).min(n) as NodeId;
                    scope.spawn(move || {
                        let mut scratch = BfsScratch::new(g.num_nodes());
                        let mut counts = vec![0u32; max_level as usize + 1];
                        let len = mine.first().map_or(0, |s| s.len());
                        let mut mine = mine;
                        #[allow(clippy::needless_range_loop)]
                        // indexes several parallel level slices
                        for i in 0..len {
                            let v = start + i as NodeId;
                            depth_counts(g, &mut scratch, v, max_level, &mut counts, use_bitset);
                            let mut cum = counts[0];
                            for h in 1..=max_level as usize {
                                cum += counts[h];
                                mine[h - 1][i] = cum;
                            }
                        }
                    });
                }
            });
        }
        VicinityIndex {
            max_level,
            levels,
            complete: true,
        }
    }

    /// Build the index *only for the given nodes* (sizes of all other
    /// nodes read as 0 — do not query them).
    ///
    /// Rejection/importance sampling only ever need `|V^h_v|` for the
    /// current event nodes `V_{a∪b}` (the weight table of Sec. 4.2), so
    /// a single-pair workload can skip the full offline sweep. The
    /// full [`VicinityIndex::build`] is the right choice when many
    /// event pairs share one graph.
    pub fn build_for_nodes<G: Adjacency>(g: &G, nodes: &[NodeId], max_level: u32) -> Self {
        assert!(max_level >= 1, "max_level must be at least 1");
        let n = g.num_nodes();
        let use_bitset = BfsKernel::Auto.use_bitset(g, max_level);
        let mut levels = vec![vec![0u32; n]; max_level as usize];
        let mut scratch = BfsScratch::new(n);
        let mut counts = vec![0u32; max_level as usize + 1];
        for &v in nodes {
            Self::fill_node(
                g,
                &mut scratch,
                v,
                max_level,
                &mut counts,
                &mut levels,
                use_bitset,
            );
        }
        VicinityIndex {
            max_level,
            levels,
            complete: false,
        }
    }

    #[allow(clippy::too_many_arguments)] // internal fill helper
    fn fill_node<G: Adjacency>(
        g: &G,
        scratch: &mut BfsScratch,
        v: NodeId,
        max_level: u32,
        counts: &mut [u32],
        levels: &mut [Vec<u32>],
        use_bitset: bool,
    ) {
        depth_counts(g, scratch, v, max_level, counts, use_bitset);
        let mut cum = counts[0];
        for h in 1..=max_level as usize {
            cum += counts[h];
            levels[h - 1][v as usize] = cum;
        }
    }

    /// Highest level this index stores.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Does the index hold `|V^h_v|` for **every** node and every level
    /// `0..=h`? False for an index shallower than `h` and for one built
    /// by [`VicinityIndex::build_for_nodes`], whose unqueried nodes read
    /// 0 — callers that look up arbitrary reference nodes (the
    /// event-side density route in `tesc`) must check this first.
    #[inline]
    pub fn covers(&self, h: u32) -> bool {
        self.complete && h <= self.max_level
    }

    /// `|V^h_v|`. `h = 0` returns 1.
    ///
    /// # Panics
    ///
    /// Panics if `h > max_level()`.
    #[inline]
    pub fn size(&self, v: NodeId, h: u32) -> usize {
        if h == 0 {
            return 1;
        }
        assert!(
            h <= self.max_level,
            "index built for h ≤ {}, asked for {h}",
            self.max_level
        );
        self.levels[h as usize - 1][v as usize] as usize
    }

    /// `N_sum = Σ_{v ∈ nodes} |V^h_v|` — the normalizer of
    /// RejectSamp/Importance sampling (Sec. 4.2).
    pub fn sum_over(&self, nodes: &[NodeId], h: u32) -> u64 {
        nodes.iter().map(|&v| self.size(v, h) as u64).sum()
    }

    /// Incrementally refresh after edges incident to the `touched`
    /// nodes were added or removed (pass both endpoints of every
    /// changed edge), and return how many nodes were recomputed.
    ///
    /// `|V^h'_x|` changes only if some path of length ≤ `h'` from `x`
    /// runs through a changed edge `{a, b}`, i.e. only if `x` reaches
    /// `a` or `b` in at most `h' − 1` hops. The dirty set is therefore
    /// the `(max_level − 1)`-ball around `touched`: discovered in
    /// `g_new`, which covers additions, and also in `g_old` when edges
    /// were removed (pass the pre-change graph then — those paths ran
    /// through edges `g_new` no longer has). Every dirty node gets a
    /// fresh `max_level`-hop BFS against `g_new`; all other entries are
    /// already exact.
    pub fn refresh<G: Adjacency>(
        &mut self,
        g_new: &G,
        g_old: Option<&G>,
        touched: &[NodeId],
    ) -> usize {
        assert_eq!(
            self.levels[0].len(),
            g_new.num_nodes(),
            "refresh cannot change the node count"
        );
        let n = g_new.num_nodes();
        let radius = self.max_level - 1;
        let mut scratch = BfsScratch::new(n);
        let mut dirty = Vec::new();
        let unlimited = Budget::unlimited();
        scratch
            .visit_h_vicinity(g_new, touched, radius, &unlimited, |v, _| dirty.push(v))
            .expect("unlimited budget");
        if let Some(old) = g_old {
            scratch
                .visit_h_vicinity(old, touched, radius, &unlimited, |v, _| dirty.push(v))
                .expect("unlimited budget");
            dirty.sort_unstable();
            dirty.dedup();
        }
        let use_bitset = BfsKernel::Auto.use_bitset(g_new, self.max_level);
        let mut counts = vec![0u32; self.max_level as usize + 1];
        for &v in &dirty {
            Self::fill_node(
                g_new,
                &mut scratch,
                v,
                self.max_level,
                &mut counts,
                &mut self.levels,
                use_bitset,
            );
        }
        dirty.len()
    }

    /// Non-destructive [`VicinityIndex::refresh`]: clone the index and
    /// refresh the clone, leaving the receiver as-is. This is the
    /// snapshot-ingestion primitive — readers of the old index keep a
    /// consistent view of the old graph while the returned index pairs
    /// with `g_new` as the next version.
    #[must_use]
    pub fn refreshed<G: Adjacency>(
        &self,
        g_new: &G,
        g_old: Option<&G>,
        touched: &[NodeId],
    ) -> Self {
        let mut next = self.clone();
        next.refresh(g_new, g_old, touched);
        next
    }
}

/// Per-depth first-reach counts of a `max_level`-hop BFS from `v`,
/// written into `counts[0..=max_level]` (cleared first), via whichever
/// kernel was resolved — both kernels tally identical depths.
fn depth_counts<G: Adjacency>(
    g: &G,
    scratch: &mut BfsScratch,
    v: NodeId,
    max_level: u32,
    counts: &mut [u32],
    use_bitset: bool,
) {
    counts.fill(0);
    if use_bitset {
        scratch
            .visit_h_vicinity_bitset(g, &[v], max_level, &Budget::unlimited())
            .expect("unlimited budget");
        for (d, &c) in scratch.level_counts().iter().enumerate() {
            counts[d] = c;
        }
    } else {
        scratch
            .visit_h_vicinity(g, &[v], max_level, &Budget::unlimited(), |_, d| {
                counts[d as usize] += 1;
            })
            .expect("unlimited budget");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{from_edges, CsrGraph};

    fn path5() -> CsrGraph {
        from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn sizes_match_direct_bfs() {
        let g = path5();
        let idx = VicinityIndex::build(&g, 3);
        let mut s = BfsScratch::new(5);
        for v in 0..5u32 {
            for h in 1..=3 {
                assert_eq!(idx.size(v, h), s.vicinity_size(&g, v, h), "v={v} h={h}");
            }
        }
    }

    #[test]
    fn level_zero_is_one() {
        let g = path5();
        let idx = VicinityIndex::build(&g, 1);
        assert_eq!(idx.size(3, 0), 1);
    }

    #[test]
    fn sizes_monotone_in_h() {
        let g = from_edges(7, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)]);
        let idx = VicinityIndex::build(&g, 3);
        for v in 0..7u32 {
            for h in 1..3 {
                assert!(idx.size(v, h) <= idx.size(v, h + 1));
            }
        }
    }

    #[test]
    fn sum_over_matches_manual() {
        let g = path5();
        let idx = VicinityIndex::build(&g, 2);
        // |V^2_v| on a path of 5: node 0 → {0,1,2}=3; 1 → 4; 2 → 5; 3 → 4; 4 → 3.
        assert_eq!(idx.sum_over(&[0, 2, 4], 2), 3 + 5 + 3);
        assert_eq!(idx.sum_over(&[], 2), 0);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Grid-ish graph with enough nodes to trigger the parallel path.
        let mut edges = Vec::new();
        let side = 40u32; // 1600 nodes > 1024 threshold
        let id = |x: u32, y: u32| x * side + y;
        for x in 0..side {
            for y in 0..side {
                if x + 1 < side {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < side {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        let g = from_edges((side * side) as usize, &edges);
        let seq = VicinityIndex::build(&g, 2);
        let par = VicinityIndex::build_parallel(&g, 2, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn refresh_after_adding_edge() {
        let g_old = path5();
        let mut idx = VicinityIndex::build(&g_old, 3);
        // Add chord 0-4, turning the path into a cycle.
        let g_new = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        idx.refresh(&g_new, Some(&g_old), &[0, 4]);
        assert_eq!(idx, VicinityIndex::build(&g_new, 3));
    }

    #[test]
    fn refresh_after_removing_edge() {
        let g_old = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let mut idx = VicinityIndex::build(&g_old, 3);
        let g_new = path5();
        idx.refresh(&g_new, Some(&g_old), &[0, 4]);
        assert_eq!(idx, VicinityIndex::build(&g_new, 3));
    }

    #[test]
    fn refresh_recomputes_only_the_ball_below_max_level() {
        // Star, hub 0: a new leaf–leaf edge puts every node within 2
        // hops of an endpoint, but only the endpoints and the hub gain
        // a ≤2-hop path through it.
        let g_old = crate::generators::star(50);
        let g_new = g_old.with_edges(&[(7, 31)]);
        let mut idx = VicinityIndex::build(&g_old, 2);
        assert_eq!(idx.refresh(&g_new, None, &[7, 31]), 3);
        assert_eq!(idx, VicinityIndex::build(&g_new, 2));
        // Removing it again dirties the same three nodes, found
        // through the old graph.
        assert_eq!(idx.refresh(&g_old, Some(&g_new), &[7, 31]), 3);
        assert_eq!(idx, VicinityIndex::build(&g_old, 2));
        // At max_level 1 only the endpoints' own degrees change.
        let mut idx1 = VicinityIndex::build(&g_old, 1);
        assert_eq!(idx1.refresh(&g_new, None, &[7, 31]), 2);
        assert_eq!(idx1, VicinityIndex::build(&g_new, 1));
    }

    #[test]
    fn refreshed_clone_leaves_receiver_untouched() {
        let g_old = path5();
        let idx = VicinityIndex::build(&g_old, 2);
        let g_new = g_old.with_edges(&[(0, 4)]);
        let next = idx.refreshed(&g_new, None, &[0, 4]);
        assert_eq!(idx, VicinityIndex::build(&g_old, 2), "receiver unchanged");
        assert_eq!(next, VicinityIndex::build(&g_new, 2));
    }

    #[test]
    #[should_panic(expected = "asked for")]
    fn asking_beyond_max_level_panics() {
        let g = path5();
        let idx = VicinityIndex::build(&g, 2);
        let _ = idx.size(0, 3);
    }

    #[test]
    fn build_for_nodes_matches_full_build_on_those_nodes() {
        let g = from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)]);
        let full = VicinityIndex::build(&g, 2);
        let targets = [1u32, 4, 6];
        let sparse = VicinityIndex::build_for_nodes(&g, &targets, 2);
        for &v in &targets {
            for h in 1..=2 {
                assert_eq!(sparse.size(v, h), full.size(v, h), "v={v} h={h}");
            }
        }
        // Unqueried nodes read 0 (documented sentinel).
        assert_eq!(sparse.size(0, 1), 0);
        // ...which is why only the full build covers arbitrary nodes.
        assert!(full.covers(0) && full.covers(2) && !full.covers(3));
        assert!(!sparse.covers(1));
    }

    #[test]
    fn scalar_and_bitset_builds_agree() {
        // A clustered graph (dense cliques + bridges) where Auto would
        // genuinely pick bitset; force both and compare.
        let mut edges = Vec::new();
        for c in 0..4u32 {
            for i in 0..12 {
                for j in (i + 1)..12 {
                    edges.push((c * 12 + i, c * 12 + j));
                }
            }
        }
        edges.extend([(0, 12), (12, 24), (24, 36)]);
        let g = from_edges(48, &edges);
        let scalar = VicinityIndex::build_with_kernel(&g, 3, crate::bfs::BfsKernel::Scalar);
        let bitset = VicinityIndex::build_with_kernel(&g, 3, crate::bfs::BfsKernel::Bitset);
        assert_eq!(scalar, bitset);
        assert_eq!(scalar, VicinityIndex::build(&g, 3));
    }

    #[test]
    fn isolated_node_size_is_one() {
        let g = from_edges(3, &[(0, 1)]);
        let idx = VicinityIndex::build(&g, 2);
        assert_eq!(idx.size(2, 1), 1);
        assert_eq!(idx.size(2, 2), 1);
    }
}
