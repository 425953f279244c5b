//! BFS toolkit: single-source `h`-hop BFS and the paper's Batch BFS.
//!
//! Every TESC operation is BFS-shaped: event densities (Eq. 2) need an
//! `h`-hop BFS per reference node, and Batch BFS (Algorithm 1) retrieves
//! `V^h_{a∪b}` with a single multi-source sweep. Because a test run
//! performs thousands of these searches, the scratch state (visited
//! marks + frontier buffers) lives in a reusable [`BfsScratch`] with
//! **epoch-stamped** visited marks: instead of clearing an `O(|V|)`
//! bitmap per search, a search is "new" simply because its epoch is.
//!
//! Two single-source kernels share the scratch (a third, the 64-way
//! multi-source kernel, lives in its own [`MsBfsScratch`] because its
//! state is a lane *word* per node rather than a mark or a bit):
//!
//! * [`BfsScratch::visit_h_vicinity`] — the **scalar** kernel: a flat
//!   queue plus epoch stamps, invoking a per-node closure. Best when
//!   vicinities are a tiny fraction of the graph.
//! * [`BfsScratch::visit_h_vicinity_bitset`] — the **bitset** kernel:
//!   the visited set is a `u64` bitmap, levels run top-down while the
//!   frontier is thin and switch to a bottom-up parent probe when it
//!   is fat (the classic direction-optimizing hybrid), and the *final*
//!   level — the bulk of every `h`-hop search — is expanded with
//!   branch-free idempotent OR stores, recovering counts by popcount.
//!   Downstream consumers intersect the visited bitmap against event
//!   masks word-by-word instead of probing per node. Both kernels
//!   produce the **identical visited set**, so every count derived
//!   from them is bit-identical; [`BfsKernel`] picks between them.
//! * [`MsBfsScratch::visit_h_vicinity_multi`] — the **multi-source**
//!   kernel: up to [`MAX_GROUP_SOURCES`] sources traverse together,
//!   one bit-lane each, so one edge scan advances every lane standing
//!   on a node. Per-lane counts are recovered by popcount and equal
//!   the single-source results exactly.

//!
//! All kernels are generic over [`Adjacency`], so they run unchanged
//! on the plain [`crate::CsrGraph`] (slice-iterating, identical
//! codegen to the pre-trait versions) and on the streaming
//! [`crate::compressed::CompressedCsr`] decoder.

use crate::adjacency::Adjacency;
use crate::budget::{Budget, Interrupted};
use crate::csr::NodeId;

/// Direction-optimizing switch threshold (Beamer et al.): a level runs
/// bottom-up when the frontier's degree sum exceeds the unexplored
/// degree sum divided by this factor.
const BU_ALPHA: u64 = 14;

/// Hard cap on the sources of one multi-source traversal: the lane
/// state is a single `u64` word per graph node, so a traversal carries
/// at most one bit-lane per word bit. Callers with more sources
/// partition them into groups (see [`SOURCE_GROUP_SIZE`]).
pub const MAX_GROUP_SOURCES: usize = 64;

/// Default number of reference-node sources fused into one
/// multi-source traversal ([`MsBfsScratch::visit_h_vicinity_multi`]).
///
/// The word width is the natural group size: a full group amortizes
/// every edge scan over 64 concurrent traversals at no extra per-word
/// cost, and the last, partially-occupied group of a workset is the
/// only one that pays for idle lanes. The free density functions in
/// `tesc::density` still take a group size, for ablations that halve
/// the occupancy to isolate the amortization effect; there is no graph
/// shape where a deliberately half-empty word wins. Shared, like
/// [`crate::PARALLEL_MIN_NODES`], so layers cannot drift apart.
pub const SOURCE_GROUP_SIZE: usize = MAX_GROUP_SOURCES;

/// [`BfsKernel::Auto`] considers multi-source batching only when a
/// density sweep has at least this many reference-node sources.
///
/// Below it, a group cannot amortize much: the fixed per-traversal
/// costs (three `O(|V|)` word-array resets plus the footprint scan)
/// are split over too few lanes, and the per-source kernels' simpler
/// inner loops win. From about a quarter-occupied word upward, one
/// shared edge scan replaces `sources` separate scans of the same CSR
/// rows, which dominates everything else. The source count is
/// necessary but not sufficient — [`BfsKernel::use_multi_source`]
/// additionally requires the sweep's expected union footprint to cover
/// the graph (see `docs/PERFORMANCE.md`).
pub const MULTI_MIN_SOURCES: usize = 16;

/// Which BFS kernel a density sweep should use.
///
/// Both kernels visit the identical node set, so every integer count
/// derived from a search is the same either way — the choice is purely
/// a performance trade-off (see `docs/PERFORMANCE.md`):
///
/// * the scalar kernel pays `O(1)` per *visited node* and nothing for
///   unvisited ones — unbeatable when vicinities are tiny;
/// * the bitset kernel pays `O(|V|/64)` per search for bitmap clears
///   and the word-level count sweep, but its branch-free final-level
///   expansion and word-wise mask intersection win as soon as
///   vicinities are a non-trivial fraction of the graph (the common
///   case at `h ≥ 2` on clustered graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BfsKernel {
    /// Pick per graph/level with [`BfsKernel::use_bitset`]'s expected
    /// vicinity-density heuristic.
    #[default]
    Auto,
    /// Always the epoch-stamped scalar kernel.
    Scalar,
    /// Always the frontier-bitmap hybrid kernel.
    Bitset,
    /// Batch reference nodes into 64-way multi-source traversals
    /// ([`MsBfsScratch`]); single-source contexts (vicinity-index
    /// builds, sampling BFS) fall back to the bitset kernel.
    Multi,
}

impl BfsKernel {
    /// Resolve the choice for `h`-hop searches on `g`.
    ///
    /// `Auto` estimates the vicinity reach as `(d̄ + 1)^h` (average
    /// degree `d̄`, capped at `|V|`) and engages the bitset kernel when
    /// that estimate is at least `|V|/32` — the point where the scalar
    /// kernel's per-visited-node probes outweigh the bitset kernel's
    /// per-word fixed costs. Explicit variants override (for tests and
    /// benches).
    pub fn use_bitset<G: Adjacency>(self, g: &G, h: u32) -> bool {
        match self {
            BfsKernel::Scalar => false,
            BfsKernel::Bitset | BfsKernel::Multi => true,
            BfsKernel::Auto => {
                let n = g.num_nodes();
                if n == 0 {
                    return false;
                }
                let branch = g.average_degree() + 1.0;
                let mut est = 1.0f64;
                for _ in 0..h {
                    est = (est * branch).min(n as f64);
                }
                est * 32.0 >= n as f64
            }
        }
    }

    /// Should a density sweep over `num_sources` reference nodes on
    /// `g` batch its sources into multi-source traversals?
    ///
    /// `Multi` always batches; the explicit per-source kernels
    /// (`Scalar`, `Bitset`) never do — they are the reference
    /// configurations every batched result must match bit for bit.
    /// `Auto` batches when two conditions hold:
    ///
    /// 1. at least [`MULTI_MIN_SOURCES`] sources, so the group's fixed
    ///    `O(|V|)` word-array costs split over a reasonably occupied
    ///    lane word, and
    /// 2. the expected **lane incidence** of a full group averages at
    ///    least 2 per node — `(d̄ + 1)^h · min(sources, 64) ≥ 2·|V|`
    ///    (reach estimate capped at `|V|`, like
    ///    [`BfsKernel::use_bitset`]). Sharing is what a multi-source
    ///    traversal sells: below ~2 lanes per visited node the group's
    ///    vicinities barely overlap, every edge scan serves mostly one
    ///    lane, and the per-source kernels' zero fixed cost wins
    ///    (measured on the `h = 1` rows of the `density_kernel`
    ///    bench — see `docs/PERFORMANCE.md`).
    ///
    /// Like every kernel choice this is purely a performance switch —
    /// the recovered counts are identical integers either way.
    pub fn use_multi_source<G: Adjacency>(self, g: &G, h: u32, num_sources: usize) -> bool {
        match self {
            BfsKernel::Multi => true,
            BfsKernel::Scalar | BfsKernel::Bitset => false,
            BfsKernel::Auto => {
                let n = g.num_nodes();
                if num_sources < MULTI_MIN_SOURCES || n == 0 {
                    return false;
                }
                let branch = g.average_degree() + 1.0;
                let mut est = 1.0f64;
                for _ in 0..h {
                    est = (est * branch).min(n as f64);
                }
                let occupancy = num_sources.min(SOURCE_GROUP_SIZE) as f64;
                est * occupancy >= 2.0 * n as f64
            }
        }
    }
}

impl std::fmt::Display for BfsKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BfsKernel::Auto => write!(f, "auto"),
            BfsKernel::Scalar => write!(f, "scalar"),
            BfsKernel::Bitset => write!(f, "bitset"),
            BfsKernel::Multi => write!(f, "multi"),
        }
    }
}

/// Reusable BFS scratch space for one graph size.
///
/// Create once per thread, reuse for every search. Searches over graphs
/// with more nodes than the scratch was created for will panic.
#[derive(Debug, Clone)]
pub struct BfsScratch {
    /// `stamp[v] == epoch` ⇔ `v` visited in the current search.
    stamp: Vec<u32>,
    epoch: u32,
    /// Flat BFS queue (level boundaries tracked by the driver loop).
    queue: Vec<NodeId>,
    /// Bitset-kernel state (allocated lazily on first bitset search):
    /// the visited bitmap of the most recent bitset search…
    visited: Vec<u64>,
    /// …the current/next frontier bitmaps for bottom-up levels…
    front_bits: Vec<u64>,
    next_bits: Vec<u64>,
    /// …the current/next frontier node lists for top-down levels…
    front_nodes: Vec<NodeId>,
    next_nodes: Vec<NodeId>,
    /// …nodes first reached at each depth of the last bitset search…
    levels: Vec<u32>,
    /// …and how many `visited` words the last bitset search covered.
    bitset_words: usize,
}

impl BfsScratch {
    /// Scratch for graphs of up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        BfsScratch {
            stamp: vec![0; num_nodes],
            epoch: 0,
            queue: Vec::new(),
            visited: Vec::new(),
            front_bits: Vec::new(),
            next_bits: Vec::new(),
            front_nodes: Vec::new(),
            next_nodes: Vec::new(),
            levels: Vec::new(),
            bitset_words: 0,
        }
    }

    /// Begin a new search: bump the epoch, handling wrap-around.
    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
    }

    #[inline]
    fn mark(&mut self, v: NodeId) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }

    /// Level-synchronous BFS from `sources` out to `h` hops, invoking
    /// `visit(node, depth)` for every reached node exactly once
    /// (sources at depth 0). Duplicate sources are visited once.
    ///
    /// With a single source this is the `h`-hop BFS of Sec. 2; with all
    /// event nodes as sources it is **Batch BFS** (Algorithm 1), whose
    /// correctness the paper argues via a virtual node connected to all
    /// sources: worst case `O(|V| + |E|)` regardless of `|sources|`.
    ///
    /// Returns the number of nodes visited. `budget` is checked once
    /// per frontier level; on exhaustion the search stops where it
    /// stands and returns the typed [`Interrupted`] error — the scratch
    /// stays valid for reuse, but the visited set is partial, so
    /// callers must not derive counts from it.
    pub fn visit_h_vicinity<G: Adjacency>(
        &mut self,
        g: &G,
        sources: &[NodeId],
        h: u32,
        budget: &Budget,
        mut visit: impl FnMut(NodeId, u32),
    ) -> Result<usize, Interrupted> {
        assert!(
            self.stamp.len() >= g.num_nodes(),
            "BfsScratch sized for {} nodes, graph has {}",
            self.stamp.len(),
            g.num_nodes()
        );
        self.begin();
        for &s in sources {
            debug_assert!((s as usize) < g.num_nodes(), "source {s} out of range");
            if self.mark(s) {
                self.queue.push(s);
                visit(s, 0);
            }
        }
        let mut visited = self.queue.len();
        let mut level_start = 0usize;
        let mut depth = 0u32;
        while depth < h {
            budget.check()?;
            let level_end = self.queue.len();
            if level_start == level_end {
                break;
            }
            depth += 1;
            for qi in level_start..level_end {
                let u = self.queue[qi];
                // The row stream borrows `g`, not `self`, so marking
                // and queue pushes interleave freely with the decode.
                g.for_each_neighbor(u, |v| {
                    if self.mark(v) {
                        self.queue.push(v);
                        visit(v, depth);
                        visited += 1;
                    }
                });
            }
            level_start = level_end;
        }
        Ok(visited)
    }

    /// Level-synchronous **bitset** BFS from `sources` out to `h` hops:
    /// the hybrid top-down/bottom-up kernel. Returns the number of
    /// nodes reached; the visited *set* is left in
    /// [`BfsScratch::visited_words`] and the per-depth first-reach
    /// counts in [`BfsScratch::level_counts`].
    ///
    /// Three mechanisms make this faster than the scalar kernel on
    /// dense vicinities, none of which changes the visited set:
    ///
    /// 1. **Bitmap visited set** — membership is one AND, and
    ///    downstream mask intersections run 64 nodes per instruction.
    /// 2. **Direction optimization** — a level whose frontier degree
    ///    sum exceeds `unexplored / α` (α = 14) runs bottom-up: scan
    ///    unvisited nodes and probe their neighbors against the
    ///    frontier bitmap, breaking at the first parent.
    /// 3. **Branch-free final level** — the deepest level (the bulk of
    ///    every search) needs no frontier bookkeeping, so it is pure
    ///    idempotent `visited[w] |= bit` stores; its size is recovered
    ///    with one popcount sweep.
    ///
    /// Duplicate sources are visited once, like the scalar kernel.
    /// `budget` is checked once per frontier level; on exhaustion the
    /// partial visited bitmap is abandoned (the scratch stays
    /// reusable) and the typed [`Interrupted`] error is returned.
    pub fn visit_h_vicinity_bitset<G: Adjacency>(
        &mut self,
        g: &G,
        sources: &[NodeId],
        h: u32,
        budget: &Budget,
    ) -> Result<usize, Interrupted> {
        let n = g.num_nodes();
        assert!(
            self.stamp.len() >= n,
            "BfsScratch sized for {} nodes, graph has {}",
            self.stamp.len(),
            n
        );
        let words = n.div_ceil(64);
        if self.visited.len() < words {
            self.visited.resize(words, 0);
            self.front_bits.resize(words, 0);
            self.next_bits.resize(words, 0);
        }
        self.bitset_words = words;
        self.visited[..words].fill(0);
        self.levels.clear();
        self.front_nodes.clear();

        let mut front_deg = 0u64;
        for &s in sources {
            debug_assert!((s as usize) < n, "source {s} out of range");
            let (w, b) = (s as usize / 64, s % 64);
            if self.visited[w] & (1u64 << b) == 0 {
                self.visited[w] |= 1u64 << b;
                self.front_nodes.push(s);
                front_deg += g.degree(s) as u64;
            }
        }
        let mut visited_count = self.front_nodes.len();
        self.levels.push(self.front_nodes.len() as u32);

        let total_deg = g.degree_sum();
        let mut visited_deg = front_deg;
        let mut front_len = self.front_nodes.len();
        let mut front_is_bits = false;
        let mut depth = 0u32;
        while depth < h && front_len > 0 {
            budget.check()?;
            depth += 1;
            if depth == h {
                // Final level: no further expansion, so membership
                // writes need no test and no frontier bookkeeping.
                if front_is_bits {
                    for w in 0..words {
                        let mut bits = self.front_bits[w];
                        while bits != 0 {
                            let u = (w * 64) as NodeId + bits.trailing_zeros();
                            bits &= bits - 1;
                            g.for_each_neighbor(u, |v| {
                                self.visited[v as usize / 64] |= 1u64 << (v % 64);
                            });
                        }
                    }
                } else {
                    let front = std::mem::take(&mut self.front_nodes);
                    for &u in &front {
                        g.for_each_neighbor(u, |v| {
                            self.visited[v as usize / 64] |= 1u64 << (v % 64);
                        });
                    }
                    self.front_nodes = front;
                }
                let total: usize = self.visited[..words]
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum();
                if total > visited_count {
                    self.levels.push((total - visited_count) as u32);
                }
                visited_count = total;
                break;
            }

            let unexplored_deg = total_deg - visited_deg;
            let bottom_up = front_deg.saturating_mul(BU_ALPHA) > unexplored_deg;
            let mut new_count = 0usize;
            let mut new_deg = 0u64;
            if bottom_up {
                if !front_is_bits {
                    self.front_bits[..words].fill(0);
                    for &u in &self.front_nodes {
                        self.front_bits[u as usize / 64] |= 1u64 << (u % 64);
                    }
                }
                self.next_bits[..words].fill(0);
                for w in 0..words {
                    // Snapshot the unvisited lanes of this word; nodes
                    // claimed below join the *next* frontier, never the
                    // current one, so the snapshot stays level-correct.
                    let mut unv = !self.visited[w];
                    if w == words - 1 && !n.is_multiple_of(64) {
                        unv &= (1u64 << (n % 64)) - 1;
                    }
                    while unv != 0 {
                        let b = unv.trailing_zeros();
                        unv &= unv - 1;
                        let v = (w * 64) as NodeId + b;
                        for p in g.neighbors_iter(v) {
                            if self.front_bits[p as usize / 64] & (1u64 << (p % 64)) != 0 {
                                self.visited[w] |= 1u64 << b;
                                self.next_bits[w] |= 1u64 << b;
                                new_count += 1;
                                new_deg += g.degree(v) as u64;
                                break;
                            }
                        }
                    }
                }
                std::mem::swap(&mut self.front_bits, &mut self.next_bits);
                front_is_bits = true;
            } else {
                if front_is_bits {
                    self.front_nodes.clear();
                    for w in 0..words {
                        let mut bits = self.front_bits[w];
                        while bits != 0 {
                            self.front_nodes
                                .push((w * 64) as NodeId + bits.trailing_zeros());
                            bits &= bits - 1;
                        }
                    }
                    front_is_bits = false;
                }
                let front = std::mem::take(&mut self.front_nodes);
                self.next_nodes.clear();
                for &u in &front {
                    g.for_each_neighbor(u, |v| {
                        let (w, b) = (v as usize / 64, v % 64);
                        if self.visited[w] & (1u64 << b) == 0 {
                            self.visited[w] |= 1u64 << b;
                            self.next_nodes.push(v);
                            new_count += 1;
                            new_deg += g.degree(v) as u64;
                        }
                    });
                }
                self.front_nodes = front;
                std::mem::swap(&mut self.front_nodes, &mut self.next_nodes);
            }
            if new_count == 0 {
                break;
            }
            visited_count += new_count;
            visited_deg += new_deg;
            front_deg = new_deg;
            front_len = new_count;
            self.levels.push(new_count as u32);
        }
        Ok(visited_count)
    }

    /// The visited bitmap of the most recent
    /// [`BfsScratch::visit_h_vicinity_bitset`] search: bit `v` set ⇔
    /// node `v` reached. Length covers exactly that search's graph.
    #[inline]
    pub fn visited_words(&self) -> &[u64] {
        &self.visited[..self.bitset_words]
    }

    /// `level_counts()[d]` = nodes first reached at depth `d` by the
    /// most recent bitset search (index 0 counts the distinct
    /// sources). The slice is truncated once the search exhausts — a
    /// missing depth means 0 new nodes.
    #[inline]
    pub fn level_counts(&self) -> &[u32] {
        &self.levels
    }

    /// Multi-mask word sweep over the visited bitmap of the most
    /// recent [`BfsScratch::visit_h_vicinity_bitset`] search: one
    /// AND + popcount pass that intersects the bitmap against **M**
    /// membership masks at once — the bitset kernel of the density
    /// executor's per-node route (`tesc::density::run_density`). See
    /// [`multi_mask_counts`] for the word-level contract.
    #[inline]
    pub fn visited_multi_mask_counts(&self, masks: &[&[u64]], counts: &mut [u32]) {
        multi_mask_counts(self.visited_words(), masks, counts);
    }

    /// Collect the node set of the `h`-vicinity of `sources` into `out`
    /// (cleared first). This is Algorithm 1's output `V_out` when
    /// `sources = V_{a∪b}`.
    pub fn h_vicinity_into<G: Adjacency>(
        &mut self,
        g: &G,
        sources: &[NodeId],
        h: u32,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        self.visit_h_vicinity(g, sources, h, &Budget::unlimited(), |v, _| out.push(v))
            .expect("unlimited budget");
    }

    /// Allocating convenience wrapper over [`Self::h_vicinity_into`].
    pub fn h_vicinity<G: Adjacency>(&mut self, g: &G, source: NodeId, h: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.h_vicinity_into(g, &[source], h, &mut out);
        out
    }

    /// `|V^h_v|` — the node count of `v`'s `h`-vicinity (including `v`).
    pub fn vicinity_size<G: Adjacency>(&mut self, g: &G, v: NodeId, h: u32) -> usize {
        self.visit_h_vicinity(g, &[v], h, &Budget::unlimited(), |_, _| {})
            .expect("unlimited budget")
    }

    /// One-pass density numerator/denominator for Eq. 2: returns
    /// `(|pred-matching nodes in V^h_r|, |V^h_r|)`.
    pub fn count_matching<G: Adjacency>(
        &mut self,
        g: &G,
        r: NodeId,
        h: u32,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> (usize, usize) {
        let mut matching = 0usize;
        let total = self
            .visit_h_vicinity(g, &[r], h, &Budget::unlimited(), |v, _| {
                if pred(v) {
                    matching += 1;
                }
            })
            .expect("unlimited budget");
        (matching, total)
    }

    /// Does the `h`-vicinity of `v` contain any node satisfying `pred`?
    /// Used by Whole-graph sampling (Alg. 3) to test reference-node
    /// eligibility; short-circuits are not possible with a level-
    /// synchronous sweep, so this simply scans (worst case = one BFS).
    pub fn vicinity_contains<G: Adjacency>(
        &mut self,
        g: &G,
        v: NodeId,
        h: u32,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> bool {
        let mut found = false;
        self.visit_h_vicinity(g, &[v], h, &Budget::unlimited(), |u, _| {
            if !found && pred(u) {
                found = true;
            }
        })
        .expect("unlimited budget");
        found
    }
}

/// Reusable scratch state for **64-way multi-source BFS** — one `h`-hop
/// traversal serving up to [`MAX_GROUP_SOURCES`] reference nodes at
/// once.
///
/// The visited state is one `u64` word per graph node: bit `s` of
/// `seen[v]` means "node `v` has been reached by source lane `s`".
/// Levels advance synchronously for all lanes with word-wise OR
/// propagation: expanding frontier node `u` ORs `front[u]`'s lanes
/// into each neighbor, and the lanes that were genuinely new
/// (`front[u] & !seen[v]`) join the next frontier. One scan of `u`'s
/// edge list therefore advances **every** lane currently standing on
/// `u` — the data-movement saving the single-source kernels cannot
/// reach, because adjacent reference nodes re-stream the same CSR rows
/// from memory once per source.
///
/// Two further mechanisms keep the fixed costs at bitset-kernel
/// parity *per source* rather than per traversal:
///
/// * **Branch-free final level.** The deepest level needs no frontier
///   bookkeeping or novelty test, so it degenerates to pure idempotent
///   `seen[v] |= lanes` OR stores — the PR 3 trick, generalized from
///   single bits to lane words.
/// * **Amortized `O(|V|)` resets.** The three word arrays are cleared
///   by straight `memset` per traversal — `O(|V|/64)` per *source* at
///   full occupancy, exactly the per-search fixed cost the
///   single-source bitset kernel already pays for its bitmap clear.
///
/// Counts are recovered per bit-lane afterwards:
/// [`MsBfsScratch::lane_sizes`] sweeps the lane words once through a
/// carry-save positional popcount (64 vertical binary counters held in
/// eight level words, flushed every 255 inputs — `O(1)` amortized per
/// word, however many lanes share it), and
/// [`MsBfsScratch::lane_member_counts`] reads only an event's
/// occurrence nodes to produce per-source `|V_e ∩ V^h_r|`. Every
/// recovered integer is identical to what `sources.len()` independent
/// single-source searches would produce (asserted in
/// `tests/kernels.rs` across 128 seeded cases).
#[derive(Debug, Clone)]
pub struct MsBfsScratch {
    /// `seen[v]` bit `s` ⇔ node `v` reached by source lane `s`.
    seen: Vec<u64>,
    /// Lanes that arrived at each node on the current level.
    front: Vec<u64>,
    /// Lanes arriving on the next level (swapped with `front`).
    next: Vec<u64>,
    /// Nodes with a non-zero `front` word, in discovery order.
    front_nodes: Vec<NodeId>,
    next_nodes: Vec<NodeId>,
    /// Lane count of the most recent traversal.
    num_lanes: usize,
    /// Node count of the most recent traversal's graph.
    num_nodes: usize,
}

impl MsBfsScratch {
    /// Scratch for graphs of up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        MsBfsScratch {
            seen: vec![0; num_nodes],
            front: vec![0; num_nodes],
            next: vec![0; num_nodes],
            front_nodes: Vec::new(),
            next_nodes: Vec::new(),
            num_lanes: 0,
            num_nodes: 0,
        }
    }

    /// Level-synchronous multi-source BFS: reach the `h`-vicinity of
    /// **every** source simultaneously, one bit-lane per source.
    /// Per-lane counts are recovered afterwards via
    /// [`MsBfsScratch::lane_sizes`] / [`MsBfsScratch::lane_member_counts`],
    /// and the union footprint via [`MsBfsScratch::union_footprint`] —
    /// all on demand, so the traversal itself pays for no recovery a
    /// caller does not ask for.
    ///
    /// Duplicate sources are legal: their lanes evolve identically
    /// (each lane is an independent traversal — sharing is an
    /// implementation property, never a semantic one).
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() > MAX_GROUP_SOURCES` or the scratch was
    /// created for fewer nodes than `g` has.
    ///
    /// `budget` is checked once per frontier level. On exhaustion the
    /// traversal stops early — the frontier invariants are restored so
    /// the scratch stays reusable, but the lane words are partial and
    /// the typed [`Interrupted`] error tells the caller to discard them.
    pub fn visit_h_vicinity_multi<G: Adjacency>(
        &mut self,
        g: &G,
        sources: &[NodeId],
        h: u32,
        budget: &Budget,
    ) -> Result<(), Interrupted> {
        let n = g.num_nodes();
        assert!(
            sources.len() <= MAX_GROUP_SOURCES,
            "at most {MAX_GROUP_SOURCES} sources per group, got {}",
            sources.len()
        );
        assert!(
            self.seen.len() >= n,
            "MsBfsScratch sized for {} nodes, graph has {}",
            self.seen.len(),
            n
        );
        // One straight memset: O(|V|/64) per source at full
        // occupancy — the same fixed cost per search the bitset kernel
        // pays for its bitmap clear. `front` and `next` are already
        // all-zero here by invariant: every level clears the frontier
        // words it consumed, and the tail frontier is cleared on exit.
        self.seen.fill(0);
        debug_assert!(self.front.iter().all(|&w| w == 0), "front left dirty");
        debug_assert!(self.next.iter().all(|&w| w == 0), "next left dirty");
        self.front_nodes.clear();
        self.num_lanes = sources.len();
        self.num_nodes = n;

        for (lane, &s) in sources.iter().enumerate() {
            debug_assert!((s as usize) < n, "source {s} out of range");
            let bit = 1u64 << lane;
            if self.seen[s as usize] == 0 {
                self.front_nodes.push(s);
            }
            self.seen[s as usize] |= bit;
            self.front[s as usize] |= bit;
        }

        let mut depth = 0u32;
        while depth < h && !self.front_nodes.is_empty() {
            // An exhausted budget breaks here, before the level is
            // expanded: the tail-frontier cleanup below then restores
            // the all-zero `front`/`next` invariant exactly as a
            // completed traversal would.
            if budget.is_exhausted() {
                break;
            }
            depth += 1;
            let front_nodes = std::mem::take(&mut self.front_nodes);
            if depth == h {
                // Final level: no lane travels further, so the OR
                // stores need no novelty test and no frontier
                // bookkeeping — branch-free, like the single-source
                // bitset kernel's deepest level.
                for &u in &front_nodes {
                    let lanes = self.front[u as usize];
                    g.for_each_neighbor(u, |v| {
                        self.seen[v as usize] |= lanes;
                    });
                }
                self.front_nodes = front_nodes;
                break;
            }
            self.next_nodes.clear();
            for &u in &front_nodes {
                let lanes = self.front[u as usize];
                g.for_each_neighbor(u, |v| {
                    let new = lanes & !self.seen[v as usize];
                    if new != 0 {
                        if self.next[v as usize] == 0 {
                            self.next_nodes.push(v);
                        }
                        self.next[v as usize] |= new;
                        self.seen[v as usize] |= new;
                    }
                });
            }
            // Clear the consumed frontier words, then promote the next
            // level: after the swap, the former `front` array (now all
            // zero again) becomes the blank `next` of the new level.
            for &u in &front_nodes {
                self.front[u as usize] = 0;
            }
            self.front_nodes = front_nodes;
            std::mem::swap(&mut self.front, &mut self.next);
            std::mem::swap(&mut self.front_nodes, &mut self.next_nodes);
        }
        // Restore the all-zero invariant for the tail frontier (the
        // final level's input, or the sources when `h = 0`) so the
        // next traversal can skip two of its three memsets.
        let front_nodes = std::mem::take(&mut self.front_nodes);
        for &u in &front_nodes {
            self.front[u as usize] = 0;
        }
        self.front_nodes = front_nodes;
        budget.check()
    }

    /// The lanes that reached node `v` in the most recent traversal
    /// (bit `s` set ⇔ source lane `s` reached `v`).
    #[inline]
    pub fn reached_lanes(&self, v: NodeId) -> u64 {
        self.seen[v as usize]
    }

    /// The per-node lane words of the most recent traversal — word `v`
    /// is [`MsBfsScratch::reached_lanes`]`(v)`. Covers exactly that
    /// traversal's graph.
    #[inline]
    pub fn lane_words(&self) -> &[u64] {
        &self.seen[..self.num_nodes]
    }

    /// Number of distinct nodes reached by any lane in the most recent
    /// traversal (the union footprint) — one sequential scan of the
    /// lane words, computed only when asked (the density executors
    /// never need it; diagnostics and tests do).
    pub fn union_footprint(&self) -> usize {
        self.lane_words().iter().filter(|&&w| w != 0).count()
    }

    /// Per-lane vicinity sizes of the most recent traversal:
    /// `sizes[s] = |V^h_{sources[s]}|`. `sizes` must hold one slot per
    /// source; slots are overwritten.
    ///
    /// One sequential sweep over the lane words through
    /// [`add_lane_popcounts`] — `O(1)` amortized per word via vertical
    /// carry-save counters, however many lanes share the word, where a
    /// naive bit loop would pay one increment per (node, lane)
    /// incidence (`Σ_s |V^h_s|`, ruinous exactly when sharing is
    /// high — the case this kernel exists for).
    pub fn lane_sizes(&self, sizes: &mut [u32]) {
        assert_eq!(sizes.len(), self.num_lanes, "one size slot per source");
        sizes.fill(0);
        add_lane_popcounts(self.lane_words(), sizes);
    }

    /// Per-lane membership counts against one node set:
    /// `counts[s] = |members ∩ V^h_{sources[s]}|`. `members` must be
    /// duplicate-free (an event's occurrence list); `counts` holds one
    /// slot per source and is overwritten.
    ///
    /// Reading only the event's members makes scoring an event against
    /// all 64 lanes `O(|V_e|)` word reads — independent of vicinity
    /// size, unlike a sweep over the visited footprint.
    pub fn lane_member_counts(&self, members: &[NodeId], counts: &mut [u32]) {
        assert_eq!(counts.len(), self.num_lanes, "one count slot per source");
        counts.fill(0);
        for &m in members {
            let mut lanes = self.seen[m as usize];
            while lanes != 0 {
                counts[lanes.trailing_zeros() as usize] += 1;
                lanes &= lanes - 1;
            }
        }
    }
}

/// Positional (per-bit-lane) popcount over a word slice:
/// `counts[s] += |{w ∈ words : bit s of w set}|`, with `counts`
/// covering at least the highest set lane.
///
/// Implementation: 64 vertical binary counters held in eight *level
/// words* (bit `s` of level `l` is bit `l` of lane `s`'s running
/// tally), advanced by carry-save addition — a word is "added" by
/// rippling it through the levels with AND/XOR, which terminates after
/// the first carry-free level (`O(1)` amortized, like incrementing a
/// binary counter). Levels are flushed into `counts` every 255 inputs
/// (the 8-bit capacity), so the per-bit extraction cost amortizes to
/// nothing. Zero words are skipped.
pub fn add_lane_popcounts(words: &[u64], counts: &mut [u32]) {
    let mut levels = [0u64; 8];
    let mut in_block = 0u32;
    for &w in words {
        if w == 0 {
            continue;
        }
        let mut carry = w;
        for level in levels.iter_mut() {
            let c = *level & carry;
            *level ^= carry;
            carry = c;
            if carry == 0 {
                break;
            }
        }
        debug_assert_eq!(carry, 0, "flush cadence bounds the counters");
        in_block += 1;
        if in_block == 255 {
            flush_lane_counters(&mut levels, counts);
            in_block = 0;
        }
    }
    flush_lane_counters(&mut levels, counts);
}

/// Drain carry-save level words into per-lane counts.
fn flush_lane_counters(levels: &mut [u64; 8], counts: &mut [u32]) {
    for (l, word) in levels.iter_mut().enumerate() {
        let mut bits = *word;
        while bits != 0 {
            counts[bits.trailing_zeros() as usize] += 1u32 << l;
            bits &= bits - 1;
        }
        *word = 0;
    }
}

/// Word-level multi-mask intersection counting — the fused-density
/// primitive: `counts[m] += popcount(visited[w] & masks[m][w])` for
/// every word `w` and mask `m`, sweeping the visited bitmap **once**
/// (word-major, all masks per word) so a single `h`-hop BFS can be
/// scored against M event masks without re-walking the bitmap M times.
///
/// `visited` and every mask must be word slices over the same id space
/// (equal length, as produced by `BfsScratch::visited_words` and
/// `NodeMask::words` in `tesc_events`); `counts` must have one slot
/// per mask and is accumulated into, not cleared — zero it first for
/// absolute counts. Zero visited words are skipped, so sparse
/// vicinities cost proportionally less.
pub fn multi_mask_counts(visited: &[u64], masks: &[&[u64]], counts: &mut [u32]) {
    debug_assert_eq!(masks.len(), counts.len(), "one count slot per mask");
    debug_assert!(
        masks.iter().all(|m| m.len() == visited.len()),
        "masks and visited bitmap must cover the same id space"
    );
    for (w, &vw) in visited.iter().enumerate() {
        if vw == 0 {
            continue;
        }
        for (m, words) in masks.iter().enumerate() {
            counts[m] += (vw & words[w]).count_ones();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{from_edges, CsrGraph};

    /// Path 0-1-2-3-4-5.
    fn path6() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn single_source_h_limits_depth() {
        let g = path6();
        let mut s = BfsScratch::new(g.num_nodes());
        let mut v1 = s.h_vicinity(&g, 0, 1);
        v1.sort_unstable();
        assert_eq!(v1, vec![0, 1]);
        let mut v3 = s.h_vicinity(&g, 0, 3);
        v3.sort_unstable();
        assert_eq!(v3, vec![0, 1, 2, 3]);
        let mut vall = s.h_vicinity(&g, 0, 10);
        vall.sort_unstable();
        assert_eq!(vall, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn h_zero_returns_only_sources() {
        let g = path6();
        let mut s = BfsScratch::new(g.num_nodes());
        assert_eq!(s.h_vicinity(&g, 2, 0), vec![2]);
    }

    #[test]
    fn depths_are_shortest_distances() {
        // Diamond: 0-1, 0-2, 1-3, 2-3; distance(0,3) = 2 via two routes.
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut s = BfsScratch::new(4);
        let mut depths = vec![u32::MAX; 4];
        s.visit_h_vicinity(&g, &[0], 5, &Budget::unlimited(), |v, d| {
            depths[v as usize] = d
        })
        .unwrap();
        assert_eq!(depths, vec![0, 1, 1, 2]);
    }

    #[test]
    fn batch_bfs_equals_union_of_single_source() {
        let g = from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (3, 4),
            ],
        );
        let sources = [0u32, 6];
        let mut s = BfsScratch::new(9);
        for h in 0..4 {
            let mut batch = Vec::new();
            s.h_vicinity_into(&g, &sources, h, &mut batch);
            batch.sort_unstable();
            let mut union: Vec<NodeId> = sources
                .iter()
                .flat_map(|&src| s.h_vicinity(&g, src, h))
                .collect();
            union.sort_unstable();
            union.dedup();
            assert_eq!(batch, union, "h={h}");
        }
    }

    #[test]
    fn duplicate_sources_visited_once() {
        let g = path6();
        let mut s = BfsScratch::new(6);
        let mut count = 0;
        s.visit_h_vicinity(&g, &[3, 3, 3], 0, &Budget::unlimited(), |_, _| count += 1)
            .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn each_node_visited_exactly_once() {
        let g = from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let mut s = BfsScratch::new(5);
        let mut seen = vec![0u32; 5];
        s.visit_h_vicinity(&g, &[0], 10, &Budget::unlimited(), |v, _| {
            seen[v as usize] += 1
        })
        .unwrap();
        assert_eq!(seen, vec![1; 5]);
    }

    #[test]
    fn scratch_reuse_isolated_between_searches() {
        let g = path6();
        let mut s = BfsScratch::new(6);
        let a = s.vicinity_size(&g, 0, 1);
        let b = s.vicinity_size(&g, 5, 1);
        let c = s.vicinity_size(&g, 0, 1);
        assert_eq!(a, 2);
        assert_eq!(b, 2);
        assert_eq!(a, c, "reuse must not leak visited marks");
    }

    #[test]
    fn vicinity_size_counts_self() {
        let g = path6();
        let mut s = BfsScratch::new(6);
        assert_eq!(s.vicinity_size(&g, 2, 0), 1);
        assert_eq!(s.vicinity_size(&g, 2, 1), 3);
        assert_eq!(s.vicinity_size(&g, 2, 2), 5);
    }

    #[test]
    fn count_matching_density_pieces() {
        let g = path6();
        let mut s = BfsScratch::new(6);
        // "Event" on odd nodes.
        let (m, t) = s.count_matching(&g, 2, 2, |v| v % 2 == 1);
        // V^2_2 = {0,1,2,3,4}; odd members = {1,3}.
        assert_eq!((m, t), (2, 5));
    }

    #[test]
    fn vicinity_contains_respects_h() {
        let g = path6();
        let mut s = BfsScratch::new(6);
        assert!(!s.vicinity_contains(&g, 0, 2, |v| v == 4));
        assert!(s.vicinity_contains(&g, 0, 4, |v| v == 4));
    }

    #[test]
    fn disconnected_components_not_reached() {
        let g = from_edges(5, &[(0, 1), (2, 3)]);
        let mut s = BfsScratch::new(5);
        let mut v = s.h_vicinity(&g, 0, 9);
        v.sort_unstable();
        assert_eq!(v, vec![0, 1]);
    }

    #[test]
    fn epoch_wraparound_resets_cleanly() {
        let g = path6();
        let mut s = BfsScratch::new(6);
        // Force the epoch to the brink, then verify searches still work.
        s.epoch = u32::MAX - 1;
        assert_eq!(s.vicinity_size(&g, 0, 1), 2); // epoch -> MAX... begin bumps to MAX
        assert_eq!(s.vicinity_size(&g, 0, 1), 2); // wraps: stamps cleared
        assert_eq!(s.vicinity_size(&g, 5, 2), 3);
    }

    #[test]
    #[should_panic(expected = "BfsScratch sized for")]
    fn undersized_scratch_panics() {
        let g = path6();
        let mut s = BfsScratch::new(3);
        let _ = s.vicinity_size(&g, 0, 1);
    }

    #[test]
    fn visited_count_matches_collected() {
        let g = from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6)]);
        let mut s = BfsScratch::new(7);
        let mut collected = Vec::new();
        let n = s
            .visit_h_vicinity(&g, &[0], 2, &Budget::unlimited(), |v, _| collected.push(v))
            .unwrap();
        assert_eq!(n, collected.len());
    }

    /// Nodes set in the scratch's visited bitmap, ascending.
    fn bitmap_nodes(s: &BfsScratch) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (w, &word) in s.visited_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((w * 64) as NodeId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }

    /// Scalar/bitset agreement on one search: same set, same count,
    /// same per-depth tallies.
    fn assert_kernels_agree(g: &CsrGraph, s: &mut BfsScratch, sources: &[NodeId], h: u32) {
        let mut scalar_nodes = Vec::new();
        let mut scalar_levels = vec![0u32; h as usize + 1];
        let scalar_n = s
            .visit_h_vicinity(g, sources, h, &Budget::unlimited(), |v, d| {
                scalar_nodes.push(v);
                scalar_levels[d as usize] += 1;
            })
            .unwrap();
        scalar_nodes.sort_unstable();
        let bitset_n = s
            .visit_h_vicinity_bitset(g, sources, h, &Budget::unlimited())
            .unwrap();
        assert_eq!(scalar_n, bitset_n, "visited counts differ");
        assert_eq!(scalar_nodes, bitmap_nodes(s), "visited sets differ");
        for (d, &c) in s.level_counts().iter().enumerate() {
            assert_eq!(scalar_levels[d], c, "depth {d} count differs");
        }
        for (d, &c) in scalar_levels
            .iter()
            .enumerate()
            .skip(s.level_counts().len())
        {
            assert_eq!(c, 0, "scalar reached depth {d}");
        }
    }

    #[test]
    fn bitset_matches_scalar_on_paths_and_diamonds() {
        let g = path6();
        let mut s = BfsScratch::new(6);
        for h in 0..6 {
            assert_kernels_agree(&g, &mut s, &[0], h);
            assert_kernels_agree(&g, &mut s, &[2], h);
            assert_kernels_agree(&g, &mut s, &[0, 5], h);
        }
        let d = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut s = BfsScratch::new(4);
        assert_kernels_agree(&d, &mut s, &[0], 2);
    }

    #[test]
    fn bitset_duplicate_sources_and_isolated_nodes() {
        let g = from_edges(130, &[(0, 1), (2, 3)]); // mostly isolated, >64 nodes
        let mut s = BfsScratch::new(130);
        assert_kernels_agree(&g, &mut s, &[3, 3, 3], 2);
        assert_kernels_agree(&g, &mut s, &[129], 4); // isolated source
        assert_eq!(
            s.visit_h_vicinity_bitset(&g, &[129], 4, &Budget::unlimited())
                .unwrap(),
            1
        );
        assert_eq!(s.level_counts(), &[1]);
    }

    #[test]
    fn bitset_star_whole_graph_in_one_hop() {
        // Frontier = everything at h = 1: exercises the final-level
        // blind-OR path on a word-boundary-straddling graph.
        let n = 100usize;
        let edges: Vec<(NodeId, NodeId)> = (1..n as NodeId).map(|v| (0, v)).collect();
        let g = from_edges(n, &edges);
        let mut s = BfsScratch::new(n);
        assert_kernels_agree(&g, &mut s, &[0], 1);
        assert_eq!(
            s.visit_h_vicinity_bitset(&g, &[0], 1, &Budget::unlimited())
                .unwrap(),
            n
        );
        // From a leaf, h = 2 covers everything via the hub.
        assert_kernels_agree(&g, &mut s, &[17], 2);
    }

    #[test]
    fn bitset_bottom_up_levels_match_scalar() {
        // A dense blob where mid-levels trip the α-threshold: complete
        // bipartite-ish core plus a tail, searched to h = 3 so the fat
        // frontier is *not* the final level.
        let mut edges = Vec::new();
        for u in 0..40u32 {
            for v in 40..80u32 {
                edges.push((u, v));
            }
        }
        edges.extend([(0, 80), (80, 81), (81, 82)]);
        let g = from_edges(83, &edges);
        let mut s = BfsScratch::new(83);
        for h in 0..5 {
            assert_kernels_agree(&g, &mut s, &[82], h);
            assert_kernels_agree(&g, &mut s, &[0], h);
        }
    }

    #[test]
    fn bitset_scratch_reuse_and_mixed_kernels() {
        // Interleave scalar and bitset searches on one scratch; also
        // shrink to a smaller graph so stale high words are ignored.
        let big = from_edges(200, &[(0, 1), (1, 2), (198, 199)]);
        let small = path6();
        let mut s = BfsScratch::new(200);
        assert_eq!(
            s.visit_h_vicinity_bitset(&big, &[198], 1, &Budget::unlimited())
                .unwrap(),
            2
        );
        assert_eq!(s.vicinity_size(&big, 0, 1), 2);
        assert_eq!(
            s.visit_h_vicinity_bitset(&small, &[0], 2, &Budget::unlimited())
                .unwrap(),
            3
        );
        assert_eq!(s.visited_words().len(), 1, "covers the small graph only");
        assert_eq!(bitmap_nodes(&s), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "BfsScratch sized for")]
    fn undersized_scratch_panics_bitset() {
        let g = path6();
        let mut s = BfsScratch::new(3);
        let _ = s
            .visit_h_vicinity_bitset(&g, &[0], 1, &Budget::unlimited())
            .unwrap();
    }

    #[test]
    fn kernel_selection_resolves() {
        let sparse = from_edges(4096, &[(0, 1), (2, 3)]);
        assert!(
            !BfsKernel::Auto.use_bitset(&sparse, 1),
            "sparse stays scalar"
        );
        let dense = from_edges(
            64,
            &(0..64u32)
                .flat_map(|u| (u + 1..64).map(move |v| (u, v)))
                .collect::<Vec<_>>(),
        );
        assert!(BfsKernel::Auto.use_bitset(&dense, 2), "dense goes bitset");
        assert!(!BfsKernel::Scalar.use_bitset(&dense, 2));
        assert!(BfsKernel::Bitset.use_bitset(&sparse, 1));
        assert!(!BfsKernel::Auto.use_bitset(&from_edges(0, &[]), 2));
        assert_eq!(BfsKernel::Auto.to_string(), "auto");
    }

    /// Per-lane reached sets of the most recent multi-source search.
    fn lane_sets(s: &MsBfsScratch, lanes: usize) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); lanes];
        for (v, &word) in s.lane_words().iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out[w.trailing_zeros() as usize].push(v as NodeId);
                w &= w - 1;
            }
        }
        out
    }

    fn assert_multi_matches_scalar(g: &CsrGraph, sources: &[NodeId], h: u32) {
        let mut ms = MsBfsScratch::new(g.num_nodes());
        let mut s = BfsScratch::new(g.num_nodes());
        ms.visit_h_vicinity_multi(g, sources, h, &Budget::unlimited())
            .unwrap();
        let sets = lane_sets(&ms, sources.len());
        let mut sizes = vec![0u32; sources.len()];
        ms.lane_sizes(&mut sizes);
        for (lane, &src) in sources.iter().enumerate() {
            let mut want = s.h_vicinity(g, src, h);
            want.sort_unstable();
            assert_eq!(sets[lane], want, "lane {lane} (source {src}), h = {h}");
            assert_eq!(sizes[lane] as usize, want.len(), "lane {lane} size");
        }
    }

    #[test]
    fn multi_source_lanes_equal_independent_single_source() {
        let g = path6();
        for h in 0..6 {
            assert_multi_matches_scalar(&g, &[0], h);
            assert_multi_matches_scalar(&g, &[0, 5], h);
            assert_multi_matches_scalar(&g, &[0, 2, 2, 5], h); // duplicates
        }
        let d = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_multi_matches_scalar(&d, &[0, 3], 2);
        // Disconnected components + isolated sources straddling words.
        let sparse = from_edges(130, &[(0, 1), (2, 3), (64, 65)]);
        assert_multi_matches_scalar(&sparse, &[0, 2, 64, 129], 4);
    }

    #[test]
    fn multi_source_full_word_group() {
        // 64 sources (a full lane word) on a graph where vicinities
        // overlap heavily — the sharing case the kernel exists for.
        let n = 200usize;
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1).map(|v| (v, v + 1)).collect();
        let g = from_edges(n, &edges);
        let sources: Vec<NodeId> = (30..94).collect();
        assert_eq!(sources.len(), 64);
        for h in [0u32, 1, 3] {
            assert_multi_matches_scalar(&g, &sources, h);
        }
    }

    #[test]
    fn multi_source_scratch_reuse_resets_cleanly() {
        let g = path6();
        let mut ms = MsBfsScratch::new(6);
        ms.visit_h_vicinity_multi(&g, &[0, 5], 1, &Budget::unlimited())
            .unwrap();
        assert_eq!(ms.union_footprint(), 4);
        // A second, disjoint traversal must not see stale lanes.
        ms.visit_h_vicinity_multi(&g, &[2], 0, &Budget::unlimited())
            .unwrap();
        assert_eq!(ms.union_footprint(), 1);
        let mut sizes = [0u32];
        ms.lane_sizes(&mut sizes);
        assert_eq!(sizes, [1]);
        assert_eq!(ms.lane_words(), &[0, 0, 1, 0, 0, 0]);
        assert_eq!(ms.reached_lanes(0), 0, "previous footprint cleared");
        // And an h = 0 group leaves each lane on its own source only.
        ms.visit_h_vicinity_multi(&g, &[3, 3, 1], 0, &Budget::unlimited())
            .unwrap();
        assert_eq!(ms.reached_lanes(3), 0b011);
        assert_eq!(ms.reached_lanes(1), 0b100);
    }

    #[test]
    fn lane_member_counts_match_per_lane_intersections() {
        let g = from_edges(
            140,
            &[(0, 1), (1, 2), (2, 63), (63, 64), (64, 65), (65, 128)],
        );
        let mut ms = MsBfsScratch::new(140);
        let sources = [0u32, 63, 139];
        ms.visit_h_vicinity_multi(&g, &sources, 2, &Budget::unlimited())
            .unwrap();
        let members = [1u32, 64, 128, 139];
        let mut counts = vec![0u32; sources.len()];
        ms.lane_member_counts(&members, &mut counts);
        let mut s = BfsScratch::new(140);
        for (lane, &src) in sources.iter().enumerate() {
            let vic = s.h_vicinity(&g, src, 2);
            let want = members.iter().filter(|m| vic.contains(m)).count();
            assert_eq!(counts[lane] as usize, want, "lane {lane}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 sources")]
    fn oversized_group_rejected() {
        let g = path6();
        let mut ms = MsBfsScratch::new(6);
        let sources = vec![0u32; 65];
        ms.visit_h_vicinity_multi(&g, &sources, 1, &Budget::unlimited())
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "MsBfsScratch sized for")]
    fn undersized_multi_scratch_panics() {
        let g = path6();
        let mut ms = MsBfsScratch::new(3);
        ms.visit_h_vicinity_multi(&g, &[0], 1, &Budget::unlimited())
            .unwrap();
    }

    #[test]
    fn multi_source_kernel_selection() {
        let g = path6();
        assert!(BfsKernel::Multi.use_multi_source(&g, 1, 1));
        assert!(!BfsKernel::Scalar.use_multi_source(&g, 3, 10_000));
        assert!(!BfsKernel::Bitset.use_multi_source(&g, 3, 10_000));
        // Auto: enough sources AND the union footprint covers the
        // graph. On path6 any 16 sources at h ≥ 1 qualify…
        assert!(BfsKernel::Auto.use_multi_source(&g, 1, MULTI_MIN_SOURCES));
        assert!(!BfsKernel::Auto.use_multi_source(&g, 1, MULTI_MIN_SOURCES - 1));
        // …but tiny vicinity islands in a big sparse graph never do.
        let sparse = from_edges(100_000, &[(0, 1), (2, 3)]);
        assert!(!BfsKernel::Auto.use_multi_source(&sparse, 1, 300));
        assert!(!BfsKernel::Auto.use_multi_source(&from_edges(0, &[]), 1, 64));
        // Multi in a single-source context degrades to the bitset path.
        assert!(BfsKernel::Multi.use_bitset(&g, 1));
        assert_eq!(BfsKernel::Multi.to_string(), "multi");
    }

    #[test]
    fn exhausted_budget_interrupts_every_kernel_and_scratch_stays_reusable() {
        use crate::budget::Budget;
        let g = path6();
        let dead = Budget::with_deadline(std::time::Duration::ZERO);
        let live = Budget::with_deadline(std::time::Duration::from_secs(3600));

        let mut s = BfsScratch::new(6);
        assert!(s.visit_h_vicinity(&g, &[0], 3, &dead, |_, _| {}).is_err());
        assert_eq!(
            s.visit_h_vicinity(&g, &[0], 3, &live, |_, _| {}),
            Ok(4),
            "scalar scratch reusable after interruption, result exact"
        );
        assert!(s.visit_h_vicinity_bitset(&g, &[0], 3, &dead).is_err());
        assert_eq!(s.visit_h_vicinity_bitset(&g, &[0], 3, &live), Ok(4));

        let mut ms = MsBfsScratch::new(6);
        assert!(ms.visit_h_vicinity_multi(&g, &[0, 5], 3, &dead).is_err());
        // The frontier invariant must survive the early exit: the next
        // (unlimited) traversal debug-asserts front/next are all-zero
        // and must produce exact lane sets.
        assert_multi_matches_scalar(&g, &[0, 5], 3);
        ms.visit_h_vicinity_multi(&g, &[0, 5], 3, &live)
            .expect("live budget");
        let mut sizes = [0u32; 2];
        ms.lane_sizes(&mut sizes);
        assert_eq!(sizes, [4, 4]);
    }

    #[test]
    fn add_lane_popcounts_matches_naive_bit_loop() {
        // > 255 words forces at least one mid-stream counter flush.
        let words: Vec<u64> = (0..700u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | ((i % 3 == 0) as u64))
            .collect();
        let mut naive = vec![0u32; 64];
        for &w in &words {
            for (s, slot) in naive.iter_mut().enumerate() {
                *slot += ((w >> s) & 1) as u32;
            }
        }
        let mut csa = vec![0u32; 64];
        add_lane_popcounts(&words, &mut csa);
        assert_eq!(naive, csa);
        // Accumulation contract: += , not overwrite.
        add_lane_popcounts(&words, &mut csa);
        assert_eq!(csa[0], 2 * naive[0]);
    }

    #[test]
    fn multi_mask_counts_matches_per_node_probes() {
        // 140 nodes spans 3 words; masks straddle word boundaries.
        let g = from_edges(
            140,
            &[
                (0, 1),
                (1, 2),
                (2, 63),
                (63, 64),
                (64, 65),
                (65, 128),
                (128, 139),
            ],
        );
        let mut s = BfsScratch::new(140);
        let mask_sets: Vec<Vec<NodeId>> = vec![
            vec![0, 63, 64, 139],
            vec![1, 2, 65, 128],
            vec![],
            (0..140).collect(),
        ];
        let to_words = |nodes: &[NodeId]| {
            let mut w = vec![0u64; 140usize.div_ceil(64)];
            for &v in nodes {
                w[v as usize / 64] |= 1 << (v % 64);
            }
            w
        };
        let word_sets: Vec<Vec<u64>> = mask_sets.iter().map(|m| to_words(m)).collect();
        for r in [0u32, 64, 139] {
            for h in 0..5u32 {
                let size = s
                    .visit_h_vicinity_bitset(&g, &[r], h, &Budget::unlimited())
                    .unwrap();
                let masks: Vec<&[u64]> = word_sets.iter().map(Vec::as_slice).collect();
                let mut counts = vec![0u32; masks.len()];
                s.visited_multi_mask_counts(&masks, &mut counts);
                // Reference: one membership probe per (visited node, mask).
                let mut visited = Vec::new();
                s.h_vicinity_into(&g, &[r], h, &mut visited);
                assert_eq!(visited.len(), size);
                for (m, nodes) in mask_sets.iter().enumerate() {
                    let expect = visited.iter().filter(|v| nodes.contains(v)).count();
                    assert_eq!(counts[m] as usize, expect, "r={r} h={h} mask {m}");
                }
            }
        }
        // Accumulation contract: counts are += , not overwritten.
        let _ = s
            .visit_h_vicinity_bitset(&g, &[0], 1, &Budget::unlimited())
            .unwrap();
        let masks: Vec<&[u64]> = word_sets[..1].iter().map(Vec::as_slice).collect();
        let mut counts = vec![100u32];
        multi_mask_counts(s.visited_words(), &masks, &mut counts);
        assert!(counts[0] >= 100);
    }
}
