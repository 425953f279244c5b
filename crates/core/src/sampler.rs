//! Reference-node sampling — Sec. 4 of the paper.
//!
//! The test needs `n` reference nodes drawn uniformly from
//! `V^h_{a∪b}`, but only `V_{a∪b}` is in hand. Four strategies:
//!
//! * **Batch BFS** (Algorithm 1) — enumerate `V^h_{a∪b}`, then
//!   subsample uniformly. [`batch_bfs_sample`] is the paper-faithful
//!   form (one multi-source scalar BFS per pair, `O(|V^h_{a∪b}| +
//!   |E^h_{a∪b}|)`) and the oracle; the engine and the planner run
//!   [`mask_sample`], which draws the *same* sample from a bitmap of
//!   the population (see below).
//! * [`rejection_sample`] — Procedure *RejectSamp*: provably uniform
//!   (Prop. 1) without enumeration, but pays `2n/p_succ` BFS searches
//!   where `p_succ = N/N_sum` collapses under heavy vicinity overlap.
//! * [`importance_sample`] — Algorithm 2: keep every draw, weight by
//!   inclusion probability, estimate τ with the consistent `t̃` of
//!   Eq. 8 (Thm. 1). The `batch_size > 1` variant (Sec. 5.2.2) draws
//!   several reference nodes per peeked vicinity, trading accuracy for
//!   fewer BFS searches.
//! * [`whole_graph_sample`] — Algorithm 3: uniform over `V`, keep the
//!   hits; `E(n_f) = n|V|/N − n` wasted eligibility checks, worthwhile
//!   only when `V^h_{a∪b}` covers most of the graph.
//!
//! # The reference population is a bitmap
//!
//! `V^h_{a∪b} = V^h_a ∪ V^h_b`, so a request over `P` pairs naming `E`
//! distinct events needs `E` reach sets, not `P` enumerations.
//! [`reach_mask`] computes one `V^h_e` as a [`NodeMask`] (one bitset-
//! kernel BFS, `|V|/8` bytes); a request-scoped `ReachMemo` holds them
//! by event content; a pair's population is the word-wise OR of two
//! of them, `N` its popcount. [`mask_sample`] then runs the partial
//! Fisher–Yates of Batch BFS over *ranks* `0..N` — storing only the
//! displaced positions — and resolves each drawn rank by select
//! ([`tesc_events::MaskSelect`]), and [`whole_graph_sample`]'s
//! eligibility check `r ∈ V^h_{a∪b}` is one bit test.
//!
//! **Population-order contract.** The Batch BFS population is ordered
//! by **ascending node id** — in the oracle (which sorts its
//! enumeration) and in the mask draw (whose rank `r` *is* the `r`-th
//! smallest member). Both consume the identical `gen_range(i..N)`
//! transcript, so they return the same nodes in the same order for
//! the same RNG, and the first `m` draws for target `m` are a prefix
//! of the draws for any larger target (the anytime tiers rely on it).

use crate::cache::{EventKey, MixBuild};
use rand::Rng;
use std::collections::HashMap;
use tesc_events::NodeMask;
use tesc_graph::bfs::BfsScratch;
use tesc_graph::{Adjacency, Budget, Interrupted, NodeId, ScratchPool, VicinityIndex};

/// Which sampling strategy the engine should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Batch BFS enumeration (Algorithm 1) + uniform subsample.
    BatchBfs,
    /// Rejection sampling (Procedure RejectSamp).
    Rejection,
    /// Importance sampling (Algorithm 2); `batch_size = 1` is the
    /// plain algorithm, larger values are the Sec. 5.2.2 batched
    /// variant (the paper uses 3 for `h = 2` and 6 for `h = 3`).
    Importance {
        /// Reference nodes drawn per peeked vicinity.
        batch_size: usize,
    },
    /// Whole-graph sampling (Algorithm 3).
    WholeGraph,
}

impl SamplerKind {
    /// Does this strategy draw from the population bitmap — and hence
    /// need the pair's reach sets memoized before the draw?
    pub(crate) fn draws_from_reach(self) -> bool {
        matches!(self, SamplerKind::BatchBfs | SamplerKind::WholeGraph)
    }
}

impl std::fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplerKind::BatchBfs => write!(f, "Batch_BFS"),
            SamplerKind::Rejection => write!(f, "RejectSamp"),
            SamplerKind::Importance { batch_size } => {
                write!(f, "Importance(k={batch_size})")
            }
            SamplerKind::WholeGraph => write!(f, "Whole graph"),
        }
    }
}

/// A uniform (unweighted) reference-node sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformSample {
    /// The sampled reference nodes (distinct).
    pub nodes: Vec<NodeId>,
    /// `N = |V^h_{a∪b}|` when the strategy enumerated it (Batch BFS).
    pub population_size: Option<usize>,
    /// Total candidate draws (diagnostics; for Whole-graph sampling the
    /// failed draws are the `n_f` of Sec. 4.4).
    pub draws: usize,
}

/// A weighted (importance) reference-node sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedSample {
    /// Distinct sampled reference nodes, in first-draw order.
    pub nodes: Vec<NodeId>,
    /// `w_i` — how many times each node was drawn (`n' = Σ w_i`).
    pub multiplicities: Vec<u32>,
    /// Total draws `n'`.
    pub total_draws: usize,
}

/// Uniformly choose `k` distinct elements from `pool` (partial
/// Fisher–Yates; order of the result is random).
fn choose_distinct(pool: &mut [NodeId], k: usize, rng: &mut impl Rng) -> Vec<NodeId> {
    debug_assert!(k <= pool.len());
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool[..k].to_vec()
}

/// Batch BFS sampling as the paper states it — the **oracle** of
/// [`mask_sample`]: enumerate `V^h_{a∪b}` with one multi-source scalar
/// BFS (Algorithm 1), order it by ascending node id (the
/// population-order contract, see the module docs) and draw a uniform
/// subsample of size `min(n, N)` by dense partial Fisher–Yates.
pub fn batch_bfs_sample<G: Adjacency>(
    g: &G,
    scratch: &mut BfsScratch,
    event_nodes: &[NodeId],
    h: u32,
    n: usize,
    rng: &mut impl Rng,
) -> UniformSample {
    let mut population = Vec::new();
    scratch.h_vicinity_into(g, event_nodes, h, &mut population);
    population.sort_unstable();
    let population_size = population.len();
    let k = n.min(population_size);
    let nodes = choose_distinct(&mut population, k, rng);
    UniformSample {
        nodes,
        population_size: Some(population_size),
        draws: k,
    }
}

/// `V^h_S` as a bitmap: one bitset-kernel BFS from `sources` under
/// `budget`, its visited words copied out (`|V|/8` bytes). An
/// interrupted search yields the typed error and no mask.
pub fn reach_mask<G: Adjacency>(
    g: &G,
    scratch: &mut BfsScratch,
    sources: &[NodeId],
    h: u32,
    budget: &Budget,
) -> Result<NodeMask, Interrupted> {
    scratch.visit_h_vicinity_bitset(g, sources, h, budget)?;
    Ok(NodeMask::from_words(
        g.num_nodes(),
        scratch.visited_words().to_vec(),
    ))
}

/// Batch BFS sampling from a population bitmap: a uniform subsample
/// of size `min(n, N)` of `population`'s members, bit-identical to
/// [`batch_bfs_sample`] over the same set (same nodes, same order,
/// same RNG consumption).
///
/// The partial Fisher–Yates runs over the virtual array `pool[r] =`
/// the `r`-th smallest member: only positions a swap displaced are
/// stored, and each drawn rank resolves by select — `O(|V|/64 + n)`
/// however large `N` is, and never a `Vec` of the population.
pub fn mask_sample(population: &NodeMask, n: usize, rng: &mut impl Rng) -> UniformSample {
    let size = population.len();
    let k = n.min(size);
    let select = population.selector();
    // Keys are loop indices and the program's own RNG draws, never
    // outside input: the cache's cheap mixer replaces SipHash, which
    // was 30% of a draw's cost.
    let mut displaced: HashMap<usize, usize, MixBuild> =
        HashMap::with_capacity_and_hasher(k, MixBuild::default());
    let mut nodes = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..size);
        // swap(pool[i], pool[j]); position i is settled and never
        // read again, so only pool[j]'s new value is kept.
        let at_i = displaced.remove(&i).unwrap_or(i);
        let at_j = if j == i {
            at_i
        } else {
            displaced.insert(j, at_i).unwrap_or(j)
        };
        nodes.push(select.select(at_j));
    }
    UniformSample {
        nodes,
        population_size: Some(size),
        draws: k,
    }
}

/// Request-scoped memo of per-event reach sets `V^h_e`, keyed by event
/// content: each distinct event of a request is traversed once
/// however many pairs (or anytime tiers) name it. Nothing outlives the
/// request, so there is nothing to invalidate.
pub(crate) struct ReachMemo {
    h: u32,
    reach: HashMap<EventKey, NodeMask, MixBuild>,
}

impl ReachMemo {
    /// Empty memo for level-`h` reach sets.
    pub(crate) fn new(h: u32) -> Self {
        ReachMemo {
            h,
            reach: HashMap::default(),
        }
    }

    /// The level the memoized reach sets were traversed to.
    pub(crate) fn h(&self) -> u32 {
        self.h
    }

    /// Resolve `V^h_e` for every listed event not yet memoized — one
    /// [`reach_mask`] each, fanned out over `threads`. A search the
    /// budget interrupts memoizes nothing; exhaustion is sticky, so
    /// the caller's next budget check fails before anything reads the
    /// hole.
    pub(crate) fn fill<G: Adjacency>(
        &mut self,
        g: &G,
        pool: &ScratchPool,
        budget: &Budget,
        events: &[EventKey],
        threads: usize,
    ) {
        let missing: Vec<&EventKey> = events
            .iter()
            .filter(|key| !self.reach.contains_key(key))
            .collect();
        let h = self.h;
        let fresh = crate::density::map_indexed(missing.len(), threads, None, |i| {
            reach_mask(g, &mut pool.acquire(), missing[i].nodes(), h, budget).ok()
        });
        for (key, mask) in missing.into_iter().zip(fresh) {
            if let Some(mask) = mask {
                self.reach.insert(key.clone(), mask);
            }
        }
    }

    /// `V^h_{a∪b} = V^h_a ∪ V^h_b`, or `None` unless both reach sets
    /// are memoized.
    pub(crate) fn population(&self, a: &EventKey, b: &EventKey) -> Option<NodeMask> {
        Some(self.reach.get(a)?.union(self.reach.get(b)?))
    }
}

/// Cumulative-weight table for degree-of-vicinity–proportional event
/// node selection (step 1 of RejectSamp / line 4 of Algorithm 2).
struct WeightTable {
    nodes: Vec<NodeId>,
    cumulative: Vec<u64>,
}

impl WeightTable {
    fn new(event_nodes: &[NodeId], vicinity: &VicinityIndex, h: u32) -> Self {
        let mut cumulative = Vec::with_capacity(event_nodes.len());
        let mut acc = 0u64;
        for &v in event_nodes {
            acc += vicinity.size(v, h) as u64;
            cumulative.push(acc);
        }
        WeightTable {
            nodes: event_nodes.to_vec(),
            cumulative,
        }
    }

    /// `N_sum`.
    fn total(&self) -> u64 {
        *self.cumulative.last().unwrap_or(&0)
    }

    /// Draw an event node with probability `|V^h_v| / N_sum`.
    fn draw(&self, rng: &mut impl Rng) -> NodeId {
        let t = rng.gen_range(0..self.total());
        let idx = self.cumulative.partition_point(|&c| c <= t);
        self.nodes[idx]
    }
}

/// Rejection sampling (Procedure RejectSamp), repeated until `n`
/// distinct reference nodes are collected or `max_draws` candidate
/// draws have been spent (guards against pathological overlap).
///
/// Each accepted node is uniform over `V^h_{a∪b}` (Prop. 1); duplicate
/// accepts are discarded, which turns the with-replacement stream into
/// a uniform distinct sample.
#[allow(clippy::too_many_arguments)]
pub fn rejection_sample<G: Adjacency>(
    g: &G,
    scratch: &mut BfsScratch,
    event_nodes: &[NodeId],
    union_mask: &NodeMask,
    vicinity: &VicinityIndex,
    h: u32,
    n: usize,
    max_draws: usize,
    rng: &mut impl Rng,
) -> UniformSample {
    let table = WeightTable::new(event_nodes, vicinity, h);
    if table.total() == 0 {
        return UniformSample {
            nodes: Vec::new(),
            population_size: None,
            draws: 0,
        };
    }
    let mut picked = NodeMask::new(g.num_nodes());
    let mut nodes = Vec::with_capacity(n);
    let mut vicinity_buf = Vec::new();
    let mut draws = 0usize;
    while nodes.len() < n && draws < max_draws {
        draws += 1;
        // Step 1: event node, probability ∝ |V^h_v|.
        let v = table.draw(rng);
        // Step 2: uniform node from V^h_v.
        scratch.h_vicinity_into(g, &[v], h, &mut vicinity_buf);
        let u = vicinity_buf[rng.gen_range(0..vicinity_buf.len())];
        // Step 3: c = |V^h_u ∩ V_{a∪b}|.
        let (c, _) = scratch.count_matching(g, u, h, |x| union_mask.contains(x));
        debug_assert!(c >= 1, "u was drawn from an event vicinity");
        // Step 4: accept with probability 1/c.
        if rng.gen_range(0..c as u64) == 0 && picked.insert(u) {
            nodes.push(u);
        }
    }
    UniformSample {
        nodes,
        population_size: None,
        draws,
    }
}

/// Importance sampling (Algorithm 2 + the Sec. 5.2.2 batched variant).
///
/// Draws reference nodes from the *non-uniform* distribution
/// `p(r) ∝ |V^h_r ∩ V_{a∪b}|`, recording multiplicities; the engine
/// reweights with `ω_i = w_i / p(r_i)` and estimates τ via `t̃` (Eq. 8).
/// Stops when `n` distinct nodes are collected or after `max_draws`
/// total draws (whichever first), so small populations terminate.
#[allow(clippy::too_many_arguments)]
pub fn importance_sample<G: Adjacency>(
    g: &G,
    scratch: &mut BfsScratch,
    event_nodes: &[NodeId],
    vicinity: &VicinityIndex,
    h: u32,
    n: usize,
    batch_size: usize,
    max_draws: usize,
    rng: &mut impl Rng,
) -> WeightedSample {
    assert!(batch_size >= 1, "batch_size must be ≥ 1");
    let table = WeightTable::new(event_nodes, vicinity, h);
    if table.total() == 0 {
        return WeightedSample {
            nodes: Vec::new(),
            multiplicities: Vec::new(),
            total_draws: 0,
        };
    }
    let mut index: HashMap<NodeId, usize> = HashMap::with_capacity(n * 2);
    let mut nodes = Vec::with_capacity(n);
    let mut multiplicities: Vec<u32> = Vec::with_capacity(n);
    let mut vicinity_buf = Vec::new();
    let mut total_draws = 0usize;
    while nodes.len() < n && total_draws < max_draws {
        // Line 4: event node, probability ∝ |V^h_v|.
        let v = table.draw(rng);
        // Line 5: peek at V^h_v, draw `batch_size` reference nodes.
        scratch.h_vicinity_into(g, &[v], h, &mut vicinity_buf);
        for _ in 0..batch_size {
            if nodes.len() >= n || total_draws >= max_draws {
                break;
            }
            total_draws += 1;
            let r = vicinity_buf[rng.gen_range(0..vicinity_buf.len())];
            match index.entry(r) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    multiplicities[*e.get()] += 1;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(nodes.len());
                    nodes.push(r);
                    multiplicities.push(1);
                }
            }
        }
    }
    WeightedSample {
        nodes,
        multiplicities,
        total_draws,
    }
}

/// Whole-graph sampling (Algorithm 3): draw nodes uniformly from `V`
/// without replacement; keep those whose `h`-vicinity contains an
/// event node — i.e. the members of `population = V^h_{a∪b}` (on an
/// undirected graph `V^h_r ∩ V_{a∪b} ≠ ∅ ⇔ r ∈ V^h_{a∪b}`), so
/// eligibility is one bit test. Stops after `n` hits or when every
/// node has been tried.
pub fn whole_graph_sample(population: &NodeMask, n: usize, rng: &mut impl Rng) -> UniformSample {
    let num_nodes = population.num_nodes();
    let mut tried = NodeMask::new(num_nodes);
    let mut nodes = Vec::with_capacity(n);
    let mut draws = 0usize;
    while nodes.len() < n && tried.len() < num_nodes {
        let v = rng.gen_range(0..num_nodes as NodeId);
        if !tried.insert(v) {
            continue;
        }
        draws += 1;
        if population.contains(v) {
            nodes.push(v);
        }
    }
    UniformSample {
        nodes,
        population_size: None,
        draws,
    }
}

/// Algorithm 3 exactly as printed — one eligibility BFS per draw. The
/// oracle [`whole_graph_sample`] must match in nodes and `draws`.
#[cfg(test)]
pub(crate) fn whole_graph_sample_bfs<G: Adjacency>(
    g: &G,
    scratch: &mut BfsScratch,
    union_mask: &NodeMask,
    h: u32,
    n: usize,
    rng: &mut impl Rng,
) -> UniformSample {
    let num_nodes = g.num_nodes();
    let mut tried = NodeMask::new(num_nodes);
    let mut nodes = Vec::with_capacity(n);
    let mut draws = 0usize;
    while nodes.len() < n && tried.len() < num_nodes {
        let v = rng.gen_range(0..num_nodes as NodeId);
        if !tried.insert(v) {
            continue;
        }
        draws += 1;
        if scratch.vicinity_contains(g, v, h, |x| union_mask.contains(x)) {
            nodes.push(v);
        }
    }
    UniformSample {
        nodes,
        population_size: None,
        draws,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tesc_graph::csr::{from_edges, CsrGraph};
    use tesc_graph::generators::{grid, path};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Enumerate the ground-truth reference population.
    fn reference_population(g: &CsrGraph, events: &[NodeId], h: u32) -> Vec<NodeId> {
        let mut s = BfsScratch::new(g.num_nodes());
        let mut out = Vec::new();
        s.h_vicinity_into(g, events, h, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn batch_bfs_small_population_returns_all() {
        let g = path(10);
        let mut s = BfsScratch::new(10);
        let events = [0u32, 9];
        let sample = batch_bfs_sample(&g, &mut s, &events, 1, 100, &mut rng(1));
        let mut got = sample.nodes.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 8, 9]);
        assert_eq!(sample.population_size, Some(4));
    }

    #[test]
    fn batch_bfs_sample_is_subset_of_population_and_distinct() {
        let g = grid(20, 20);
        let mut s = BfsScratch::new(g.num_nodes());
        let events = [0u32, 150, 399];
        let pop = reference_population(&g, &events, 2);
        let sample = batch_bfs_sample(&g, &mut s, &events, 2, 10, &mut rng(2));
        assert_eq!(sample.nodes.len(), 10);
        let mut sorted = sample.nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "sample must be distinct");
        for v in sorted {
            assert!(pop.binary_search(&v).is_ok(), "{v} outside population");
        }
    }

    #[test]
    fn rejection_sample_stays_in_population() {
        let g = grid(15, 15);
        let events = [0u32, 100, 224];
        let h = 2;
        let idx = VicinityIndex::build(&g, h);
        let union_mask = NodeMask::from_nodes(g.num_nodes(), &events);
        let mut s = BfsScratch::new(g.num_nodes());
        let pop = reference_population(&g, &events, h);
        let sample = rejection_sample(
            &g,
            &mut s,
            &events,
            &union_mask,
            &idx,
            h,
            20,
            100_000,
            &mut rng(3),
        );
        assert_eq!(sample.nodes.len(), 20);
        for &v in &sample.nodes {
            assert!(pop.binary_search(&v).is_ok());
        }
    }

    #[test]
    fn rejection_sample_is_uniform_chi_square() {
        // Tiny population, many repetitions: every member's selection
        // frequency should be near-uniform. Single-node "population
        // draws" with n = 1 let us measure the marginal directly.
        let g = path(8);
        let events = [2u32, 5];
        let h = 1;
        let idx = VicinityIndex::build(&g, h);
        let union_mask = NodeMask::from_nodes(8, &events);
        let mut s = BfsScratch::new(8);
        let pop = reference_population(&g, &events, h); // {1,2,3,4,5,6}
        assert_eq!(pop.len(), 6);
        let trials = 6000;
        let mut counts = vec![0usize; 8];
        let mut r = rng(4);
        for _ in 0..trials {
            let sample =
                rejection_sample(&g, &mut s, &events, &union_mask, &idx, h, 1, 10_000, &mut r);
            counts[sample.nodes[0] as usize] += 1;
        }
        let expected = trials as f64 / pop.len() as f64;
        let chi2: f64 = pop
            .iter()
            .map(|&v| {
                let d = counts[v as usize] as f64 - expected;
                d * d / expected
            })
            .sum();
        // 5 degrees of freedom; critical value at α=0.001 is 20.5.
        assert!(chi2 < 20.5, "chi2 = {chi2}, counts = {counts:?}");
        // Nothing outside the population was ever produced.
        assert_eq!(counts[0] + counts[7], 0);
    }

    #[test]
    fn rejection_respects_max_draws() {
        let g = path(8);
        let events = [2u32];
        let idx = VicinityIndex::build(&g, 1);
        let union_mask = NodeMask::from_nodes(8, &events);
        let mut s = BfsScratch::new(8);
        // Ask for more nodes than the population holds; must terminate.
        let sample = rejection_sample(
            &g,
            &mut s,
            &events,
            &union_mask,
            &idx,
            1,
            50,
            500,
            &mut rng(5),
        );
        assert!(sample.nodes.len() <= 3, "population V^1_2 has 3 nodes");
        assert!(sample.draws <= 500);
    }

    #[test]
    fn importance_sample_covers_population_and_counts_draws() {
        let g = path(8);
        let events = [2u32, 5];
        let h = 1;
        let idx = VicinityIndex::build(&g, h);
        let mut s = BfsScratch::new(8);
        let sample = importance_sample(&g, &mut s, &events, &idx, h, 6, 1, 100_000, &mut rng(6));
        assert_eq!(sample.nodes.len(), 6);
        assert_eq!(sample.nodes.len(), sample.multiplicities.len());
        let total: u32 = sample.multiplicities.iter().sum();
        assert_eq!(total as usize, sample.total_draws);
        let pop = reference_population(&g, &events, h);
        for &v in &sample.nodes {
            assert!(pop.binary_search(&v).is_ok());
        }
    }

    #[test]
    fn importance_marginal_is_proportional_to_event_coverage() {
        // On path 0-1-2-3 with events {1,2} and h=1:
        // p(r) ∝ |V^1_r ∩ {1,2}|: node0:1, node1:2, node2:2, node3:1.
        let g = path(4);
        let events = [1u32, 2];
        let idx = VicinityIndex::build(&g, 1);
        let mut s = BfsScratch::new(4);
        let mut counts = [0usize; 4];
        let mut r = rng(7);
        let trials = 12000;
        for _ in 0..trials {
            let sample = importance_sample(&g, &mut s, &events, &idx, 1, 1, 1, 10, &mut r);
            counts[sample.nodes[0] as usize] += 1;
        }
        // Expected proportions 1/6, 2/6, 2/6, 1/6.
        let total = trials as f64;
        for (v, want) in [
            (0usize, 1.0 / 6.0),
            (1, 2.0 / 6.0),
            (2, 2.0 / 6.0),
            (3, 1.0 / 6.0),
        ] {
            let got = counts[v] as f64 / total;
            assert!(
                (got - want).abs() < 0.02,
                "node {v}: frequency {got:.3}, want {want:.3} ({counts:?})"
            );
        }
    }

    #[test]
    fn importance_batching_reduces_vicinity_peeks() {
        // With batch_size = k, consecutive draws share a peeked vicinity;
        // we can't observe BFS count directly here, but the multiplicity
        // structure must still be consistent and the sample complete.
        let g = grid(12, 12);
        let events = [0u32, 77, 143];
        let idx = VicinityIndex::build(&g, 2);
        let mut s = BfsScratch::new(g.num_nodes());
        let sample = importance_sample(&g, &mut s, &events, &idx, 2, 25, 6, 100_000, &mut rng(8));
        assert_eq!(sample.nodes.len(), 25);
        let total: u32 = sample.multiplicities.iter().sum();
        assert_eq!(total as usize, sample.total_draws);
    }

    #[test]
    fn importance_terminates_on_small_population() {
        let g = path(5);
        let events = [2u32];
        let idx = VicinityIndex::build(&g, 1);
        let mut s = BfsScratch::new(5);
        let sample = importance_sample(&g, &mut s, &events, &idx, 1, 50, 1, 1000, &mut rng(9));
        // Population is {1,2,3}; draws cap at 1000 and we keep 3 nodes.
        assert!(sample.nodes.len() <= 3);
        assert_eq!(sample.total_draws, 1000);
    }

    /// `V^h_S` as a bitmap, unbudgeted.
    fn reach(g: &CsrGraph, sources: &[NodeId], h: u32) -> NodeMask {
        let mut s = BfsScratch::new(g.num_nodes());
        reach_mask(g, &mut s, sources, h, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn whole_graph_keeps_only_eligible() {
        let g = path(10);
        let sample = whole_graph_sample(&reach(&g, &[0], 2), 10, &mut rng(10));
        // Eligible: {0,1,2}; sampler exhausts all 10 nodes trying.
        let mut got = sample.nodes.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(sample.draws, 10, "every node examined once");
    }

    #[test]
    fn whole_graph_stops_at_n() {
        let g = grid(10, 10);
        let events: Vec<NodeId> = (0..100).collect(); // everything eligible
        let sample = whole_graph_sample(&reach(&g, &events, 1), 15, &mut rng(11));
        assert_eq!(sample.nodes.len(), 15);
        assert_eq!(sample.draws, 15, "every draw is a hit here");
    }

    #[test]
    fn samplers_are_seed_reproducible() {
        let g = grid(10, 10);
        let events = [5u32, 50, 95];
        let idx = VicinityIndex::build(&g, 2);
        let population = reach(&g, &events, 2);
        let mut s = BfsScratch::new(100);
        let a = batch_bfs_sample(&g, &mut s, &events, 2, 12, &mut rng(12));
        let b = batch_bfs_sample(&g, &mut s, &events, 2, 12, &mut rng(12));
        assert_eq!(a, b);
        let c = importance_sample(&g, &mut s, &events, &idx, 2, 12, 3, 10_000, &mut rng(13));
        let d = importance_sample(&g, &mut s, &events, &idx, 2, 12, 3, 10_000, &mut rng(13));
        assert_eq!(c, d);
        let e = whole_graph_sample(&population, 12, &mut rng(14));
        let f = whole_graph_sample(&population, 12, &mut rng(14));
        assert_eq!(e, f);
    }

    #[test]
    fn empty_event_set_yields_empty_samples() {
        let g = path(5);
        let idx = VicinityIndex::build(&g, 1);
        let union_mask = NodeMask::new(5);
        let mut s = BfsScratch::new(5);
        let a = batch_bfs_sample(&g, &mut s, &[], 1, 5, &mut rng(15));
        assert!(a.nodes.is_empty());
        let b = rejection_sample(&g, &mut s, &[], &union_mask, &idx, 1, 5, 100, &mut rng(15));
        assert!(b.nodes.is_empty());
        let c = importance_sample(&g, &mut s, &[], &idx, 1, 5, 1, 100, &mut rng(15));
        assert!(c.nodes.is_empty());
        assert!(mask_sample(&reach(&g, &[], 1), 5, &mut rng(15))
            .nodes
            .is_empty());
        let d = whole_graph_sample(&reach(&g, &[], 1), 5, &mut rng(15));
        assert!(d.nodes.is_empty());
        assert_eq!(d.draws, 5, "whole-graph still examines (and rejects) nodes");
    }

    #[test]
    fn batch_bfs_marginal_uniform() {
        // Population {1..=6} on path(8) as before; Batch BFS with n=1,
        // drawn through the population bitmap.
        let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let population = reach(&g, &[2], 1).union(&reach(&g, &[5], 1));
        assert_eq!(population.to_nodes(), vec![1, 2, 3, 4, 5, 6]);
        let mut counts = vec![0usize; 8];
        let mut r = rng(16);
        let trials = 6000;
        for _ in 0..trials {
            let sample = mask_sample(&population, 1, &mut r);
            counts[sample.nodes[0] as usize] += 1;
        }
        let expected = trials as f64 / 6.0;
        let chi2: f64 = (1..=6)
            .map(|v| (counts[v] as f64 - expected).powi(2) / expected)
            .sum();
        // 5 degrees of freedom; critical value at α=0.001 is 20.5.
        assert!(chi2 < 20.5, "chi2 = {chi2}, counts = {counts:?}");
        assert_eq!(counts[0] + counts[7], 0);
    }

    #[test]
    fn interrupted_reach_memoizes_nothing_and_the_refill_is_clean() {
        let g = grid(12, 12);
        let pool = ScratchPool::for_graph(&g);
        let events = [EventKey::new(&[0, 5, 77]), EventKey::new(&[143])];
        let cancelled = Budget::cancellable();
        cancelled.cancel();
        let mut memo = ReachMemo::new(2);
        for threads in [1usize, 4] {
            memo.fill(&g, &pool, &cancelled, &events, threads);
            assert!(memo.reach.is_empty(), "interrupted searches left entries");
            assert!(memo.population(&events[0], &events[1]).is_none());
        }
        memo.fill(&g, &pool, &Budget::unlimited(), &events, 1);
        assert_eq!(
            memo.population(&events[0], &events[1]).unwrap(),
            reach(&g, &[0, 5, 77, 143], 2)
        );
        // Memoized events are not traversed again: a dead budget is
        // never consulted for them.
        memo.fill(&g, &pool, &cancelled, &events, 1);
        assert_eq!(memo.reach.len(), 2);
    }

    /// 128 seeded cases of the one contract the engine's sampling rests
    /// on: per-event reach bitmaps OR-ed are the union's reach, the
    /// mask draw equals the per-pair Batch BFS oracle (nodes, order,
    /// `N`, RNG consumption), tier `m` is the `m`-prefix of tier `n`,
    /// and the bit-test whole-graph sampler equals Algorithm 3's
    /// per-draw BFS in nodes and `draws`.
    #[test]
    fn mask_draw_equals_scalar_oracle_on_seeded_graphs() {
        use rand::Rng;
        use tesc_events::store::merge_union;
        use tesc_graph::generators::{barabasi_albert, erdos_renyi_gnm};
        let mut tiny_populations = 0;
        let mut exhausted = 0;
        for case in 0..128u64 {
            let mut r = rng(1000 + case);
            // Sizes straddle word boundaries: |V| % 64 is 0 for some
            // cases and not for most.
            let n_nodes = match case % 4 {
                0 => 64 * r.gen_range(1..5usize),
                _ => r.gen_range(5..400usize),
            };
            let g = match case % 3 {
                // Sparse G(n, m): isolated nodes and small components.
                0 => erdos_renyi_gnm(n_nodes, n_nodes / 2, &mut r),
                1 => barabasi_albert(n_nodes.max(4), 2, &mut r),
                _ => grid(n_nodes.div_ceil(7), 7),
            };
            let n_nodes = g.num_nodes() as NodeId;
            let h = r.gen_range(0..4u32);
            let event = |r: &mut StdRng| -> Vec<NodeId> {
                let len = r.gen_range(0..(n_nodes as usize / 3).max(2));
                let mut e: Vec<NodeId> = (0..len).map(|_| r.gen_range(0..n_nodes)).collect();
                e.sort_unstable();
                e.dedup();
                e
            };
            let a = event(&mut r);
            // a = b, overlapping, and independent second events.
            let b = match case % 5 {
                0 => a.clone(),
                1 => merge_union(&a[..a.len() / 2], &event(&mut r)),
                _ => event(&mut r),
            };
            let union = merge_union(&a, &b);
            let ctx = format!(
                "case {case}: |V|={n_nodes} h={h} |a|={} |b|={}",
                a.len(),
                b.len()
            );

            let population = reach(&g, &a, h).union(&reach(&g, &b, h));
            assert_eq!(population, reach(&g, &union, h), "{ctx}: OR ≠ union reach");
            assert_eq!(
                population.to_nodes(),
                reference_population(&g, &union, h),
                "{ctx}: bitmap ≠ scalar enumeration"
            );

            let mut s = BfsScratch::new(g.num_nodes());
            let n = r.gen_range(1..60usize);
            let seed = r.gen_range(0..u64::MAX);
            let (mut r_mask, mut r_oracle) = (rng(seed), rng(seed));
            let got = mask_sample(&population, n, &mut r_mask);
            let want = batch_bfs_sample(&g, &mut s, &union, h, n, &mut r_oracle);
            assert_eq!(got, want, "{ctx}: n={n}");
            assert_eq!(
                r_mask.gen_range(0..u64::MAX),
                r_oracle.gen_range(0..u64::MAX),
                "{ctx}: RNG streams diverged"
            );
            tiny_populations += usize::from(population.len() < 3);
            exhausted += usize::from(population.len() < n);
            for m in [1, n / 2, n] {
                let tier = mask_sample(&population, m, &mut rng(seed));
                let len = tier.nodes.len();
                assert_eq!(tier.nodes[..], got.nodes[..len], "{ctx}: tier {m} of {n}");
            }

            let union_mask = NodeMask::from_nodes(g.num_nodes(), &union);
            assert_eq!(
                whole_graph_sample(&population, n, &mut rng(seed)),
                whole_graph_sample_bfs(&g, &mut s, &union_mask, h, n, &mut rng(seed)),
                "{ctx}: whole-graph bit test ≠ per-draw BFS"
            );
        }
        // The sweep must actually reach the edge regimes it names.
        assert!(tiny_populations > 0, "no case with N < 3");
        assert!(exhausted > 10, "only {exhausted} cases with N < n");
    }
}
