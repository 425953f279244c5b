//! Synthetic event simulation — the methodology of Sec. 5.2.
//!
//! The paper validates the TESC test by *planting* correlated event
//! pairs on a real graph and measuring recall:
//!
//! * **Positive pairs** are generated "in a linked pair fashion": every
//!   event-`a` node gets an associated event-`b` node whose hop
//!   distance follows a Gaussian with mean 0 and variance `h`
//!   (distances beyond `h` are clamped to `h`).
//! * **Negative pairs** place all `b` nodes outside `V^h_a`, so every
//!   `b` occurrence is at least `h+1` hops from every `a` occurrence.
//! * **Noise** gradually breaks the correlation: with probability `p`
//!   a positive link is broken (its `b` node relocated outside
//!   `V^h_a`); with probability `p` a negative `b` node is relocated
//!   next to a random `a` node.
//!
//! All functions are deterministic given the RNG, and take an external
//! [`BfsScratch`] so sweeping thousands of planted pairs allocates
//! nothing per pair.

use crate::store::NodeMask;
use rand::Rng;
use tesc_graph::bfs::BfsScratch;
use tesc_graph::csr::CsrGraph;
use tesc_graph::dist::nodes_at_distance;
use tesc_graph::perturb::sample_nodes;
use tesc_graph::{Budget, NodeId};

/// A pair of event occurrence sets (sorted, deduplicated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventPair {
    /// `V_a`.
    pub a: Vec<NodeId>,
    /// `V_b`.
    pub b: Vec<NodeId>,
}

impl EventPair {
    /// Normalize (sort + dedup) and wrap.
    pub fn new(mut a: Vec<NodeId>, mut b: Vec<NodeId>) -> Self {
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        EventPair { a, b }
    }

    /// `V_{a∪b}` — all event nodes.
    pub fn union(&self) -> Vec<NodeId> {
        crate::store::merge_union(&self.a, &self.b)
    }
}

/// A positively correlated pair with its link structure retained
/// (needed by the noise model, which breaks individual links).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkedPair {
    /// The event-`a` nodes, one per link.
    pub a_nodes: Vec<NodeId>,
    /// `links[i]` is the event-`b` node associated with `a_nodes[i]`.
    pub b_nodes: Vec<NodeId>,
    /// The vicinity level the pair was generated for.
    pub h: u32,
}

impl LinkedPair {
    /// Collapse into occurrence sets.
    pub fn to_pair(&self) -> EventPair {
        EventPair::new(self.a_nodes.clone(), self.b_nodes.clone())
    }
}

/// Errors from the simulators (all are "the graph is too small/dense
/// for the requested plant" conditions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimulateError {
    /// Requested more event nodes than the graph has.
    NotEnoughNodes {
        /// Nodes requested.
        requested: usize,
        /// Nodes available.
        available: usize,
    },
    /// `V \ V^h_a` is too small to host the negative event / relocations.
    ComplementTooSmall {
        /// Nodes needed outside the vicinity.
        requested: usize,
        /// Complement size.
        available: usize,
    },
}

impl std::fmt::Display for SimulateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimulateError::NotEnoughNodes {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} event nodes, graph has {available}"
            ),
            SimulateError::ComplementTooSmall {
                requested,
                available,
            } => write!(
                f,
                "need {requested} nodes outside the event vicinity, only {available} exist"
            ),
        }
    }
}

impl std::error::Error for SimulateError {}

/// Standard normal sample via Box–Muller (`rand` offline build has no
/// `rand_distr`, so we roll the two-liner ourselves).
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Hop distance for a linked `b` node: `|N(0, h)|` rounded, clamped to
/// `[0, h]` ("distances go beyond h are set to h").
fn link_distance(h: u32, rng: &mut impl Rng) -> u32 {
    let d = (gaussian(rng) * (h as f64).sqrt()).abs().round() as u32;
    d.min(h)
}

/// Generate a strongly positively correlated pair (Sec. 5.2):
/// `size` random `a` nodes, each with a `b` node at Gaussian hop
/// distance — "wherever we observe an event a, there is always a nearby
/// event b".
///
/// If no node exists at the drawn distance (e.g. a small component),
/// the nearest non-empty ring below it is used (ring 0 = the `a` node
/// itself always exists).
pub fn positive_pair(
    g: &CsrGraph,
    scratch: &mut BfsScratch,
    size: usize,
    h: u32,
    rng: &mut impl Rng,
) -> Result<LinkedPair, SimulateError> {
    if size > g.num_nodes() {
        return Err(SimulateError::NotEnoughNodes {
            requested: size,
            available: g.num_nodes(),
        });
    }
    let a_nodes = sample_nodes(g, size, rng);
    let mut b_nodes = Vec::with_capacity(size);
    for &v in &a_nodes {
        let mut d = link_distance(h, rng);
        let b = loop {
            if d == 0 {
                break v;
            }
            let ring = nodes_at_distance(g, scratch, v, d);
            if ring.is_empty() {
                d -= 1;
                continue;
            }
            break ring[rng.gen_range(0..ring.len())];
        };
        b_nodes.push(b);
    }
    Ok(LinkedPair {
        a_nodes,
        b_nodes,
        h,
    })
}

/// Generate a strongly negatively correlated pair (Sec. 5.2): `size_a`
/// random `a` nodes, then `size_b` random `b` nodes drawn from
/// `V \ V^h_a`, keeping every `b` at least `h+1` hops from every `a`.
pub fn negative_pair(
    g: &CsrGraph,
    scratch: &mut BfsScratch,
    size_a: usize,
    size_b: usize,
    h: u32,
    rng: &mut impl Rng,
) -> Result<EventPair, SimulateError> {
    if size_a > g.num_nodes() {
        return Err(SimulateError::NotEnoughNodes {
            requested: size_a,
            available: g.num_nodes(),
        });
    }
    let a_nodes = sample_nodes(g, size_a, rng);
    let mut vicinity = NodeMask::new(g.num_nodes());
    scratch
        .visit_h_vicinity(g, &a_nodes, h, &Budget::unlimited(), |v, _| {
            vicinity.insert(v);
        })
        .expect("unlimited budget");
    let complement_size = g.num_nodes() - vicinity.len();
    if size_b > complement_size {
        return Err(SimulateError::ComplementTooSmall {
            requested: size_b,
            available: complement_size,
        });
    }
    let b_nodes = sample_outside(g, &vicinity, size_b, rng);
    Ok(EventPair::new(a_nodes, b_nodes))
}

/// Independent events: two uniformly random node sets (they may
/// overlap, as truly independent events would). Used to measure the
/// test's Type-I error rate.
pub fn independent_pair(
    g: &CsrGraph,
    size_a: usize,
    size_b: usize,
    rng: &mut impl Rng,
) -> Result<EventPair, SimulateError> {
    let n = g.num_nodes();
    if size_a > n || size_b > n {
        return Err(SimulateError::NotEnoughNodes {
            requested: size_a.max(size_b),
            available: n,
        });
    }
    let a = sample_nodes(g, size_a, rng);
    let b = sample_nodes(g, size_b, rng);
    Ok(EventPair::new(a, b))
}

/// Positive-pair noise (Sec. 5.2.1): "a sequence of independent
/// Bernoulli trials, one for each linked pair, in which with
/// probability p the pair is broken and the node of b is relocated
/// outside `V^h_a`".
pub fn apply_positive_noise(
    g: &CsrGraph,
    scratch: &mut BfsScratch,
    pair: &LinkedPair,
    p: f64,
    rng: &mut impl Rng,
) -> Result<EventPair, SimulateError> {
    assert!((0.0..=1.0).contains(&p), "noise level must be in [0,1]");
    let mut vicinity = NodeMask::new(g.num_nodes());
    scratch
        .visit_h_vicinity(g, &pair.a_nodes, pair.h, &Budget::unlimited(), |v, _| {
            vicinity.insert(v);
        })
        .expect("unlimited budget");
    let complement_size = g.num_nodes() - vicinity.len();
    let mut b_nodes = Vec::with_capacity(pair.b_nodes.len());
    for &b in &pair.b_nodes {
        if rng.gen_range(0.0..1.0f64) < p {
            if complement_size == 0 {
                return Err(SimulateError::ComplementTooSmall {
                    requested: 1,
                    available: 0,
                });
            }
            b_nodes.push(sample_outside(g, &vicinity, 1, rng)[0]);
        } else {
            b_nodes.push(b);
        }
    }
    Ok(EventPair::new(pair.a_nodes.clone(), b_nodes))
}

/// Negative-pair noise (Sec. 5.2.1): "each node in V_b has probability
/// p to be relocated and attached with one node in V_a" — the relocated
/// occurrence is planted at Gaussian hop distance from a random `a`
/// node, exactly like a positive link.
pub fn apply_negative_noise(
    g: &CsrGraph,
    scratch: &mut BfsScratch,
    pair: &EventPair,
    h: u32,
    p: f64,
    rng: &mut impl Rng,
) -> EventPair {
    assert!((0.0..=1.0).contains(&p), "noise level must be in [0,1]");
    assert!(
        !pair.a.is_empty(),
        "negative noise needs a nodes to attach to"
    );
    let mut b_nodes = Vec::with_capacity(pair.b.len());
    for &b in &pair.b {
        if rng.gen_range(0.0..1.0f64) < p {
            let anchor = pair.a[rng.gen_range(0..pair.a.len())];
            let mut d = link_distance(h, rng);
            let relocated = loop {
                if d == 0 {
                    break anchor;
                }
                let ring = nodes_at_distance(g, scratch, anchor, d);
                if !ring.is_empty() {
                    break ring[rng.gen_range(0..ring.len())];
                }
                d -= 1;
            };
            b_nodes.push(relocated);
        } else {
            b_nodes.push(b);
        }
    }
    EventPair::new(pair.a.clone(), b_nodes)
}

/// Sample `count` distinct nodes outside `mask`, uniformly.
///
/// Strategy: rejection sampling while the complement is a reasonable
/// fraction of the graph, falling back to explicit complement
/// enumeration when rejection keeps missing (dense-mask case).
fn sample_outside(g: &CsrGraph, mask: &NodeMask, count: usize, rng: &mut impl Rng) -> Vec<NodeId> {
    let n = g.num_nodes();
    let complement = n - mask.len();
    debug_assert!(count <= complement);
    let mut chosen = NodeMask::new(n);
    let mut out = Vec::with_capacity(count);
    // Expected tries per hit = n / complement; give rejection a generous
    // budget before switching to enumeration.
    let budget = 32 * count * (n / complement.max(1)).max(1);
    let mut tries = 0usize;
    while out.len() < count && tries < budget {
        tries += 1;
        let v = rng.gen_range(0..n as NodeId);
        if !mask.contains(v) && chosen.insert(v) {
            out.push(v);
        }
    }
    if out.len() < count {
        // Enumerate the remaining complement and fill deterministically
        // at random positions.
        let mut pool: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| !mask.contains(v) && !chosen.contains(v))
            .collect();
        while out.len() < count {
            let i = rng.gen_range(0..pool.len());
            out.push(pool.swap_remove(i));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tesc_graph::dist::distances_from_set;
    use tesc_graph::generators::{barabasi_albert, erdos_renyi_gnm, grid, path};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn positive_links_stay_within_h() {
        let g = grid(30, 30);
        let mut s = BfsScratch::new(g.num_nodes());
        for h in 1..=3 {
            let lp = positive_pair(&g, &mut s, 40, h, &mut rng(h as u64)).unwrap();
            assert_eq!(lp.a_nodes.len(), 40);
            assert_eq!(lp.b_nodes.len(), 40);
            for (&a, &b) in lp.a_nodes.iter().zip(&lp.b_nodes) {
                let d = tesc_graph::dist::bounded_distance(&g, &mut s, a, b, h).unwrap_or(u32::MAX);
                assert!(d <= h, "link distance {d} exceeds h={h}");
            }
        }
    }

    #[test]
    fn positive_pair_distance_distribution_is_concentrated() {
        // With variance h, most mass should be at small distances.
        let g = grid(40, 40);
        let mut s = BfsScratch::new(g.num_nodes());
        let lp = positive_pair(&g, &mut s, 300, 3, &mut rng(5)).unwrap();
        let zero_dist = lp
            .a_nodes
            .iter()
            .zip(&lp.b_nodes)
            .filter(|(a, b)| a == b)
            .count();
        // P(|N(0,3)| rounds to 0) ≈ 0.23; allow a broad band.
        assert!(
            zero_dist > 20 && zero_dist < 180,
            "zero-distance links {zero_dist}"
        );
    }

    #[test]
    fn negative_pair_respects_separation() {
        let g = barabasi_albert(3000, 3, &mut rng(1));
        let mut s = BfsScratch::new(g.num_nodes());
        let h = 2;
        let pair = negative_pair(&g, &mut s, 30, 30, h, &mut rng(2)).unwrap();
        assert_eq!(pair.a.len(), 30);
        assert_eq!(pair.b.len(), 30);
        let dist = distances_from_set(&g, &mut s, &pair.a, h);
        for &b in &pair.b {
            assert!(
                dist[b as usize] == u32::MAX,
                "b node {b} within {h} hops of V_a"
            );
        }
    }

    #[test]
    fn negative_pair_fails_when_vicinity_covers_graph() {
        // A star: V^1 of the hub covers everything.
        let g = tesc_graph::generators::star(50);
        let mut s = BfsScratch::new(50);
        // With all nodes as event a, complement is empty.
        let err = negative_pair(&g, &mut s, 50, 1, 1, &mut rng(3)).unwrap_err();
        assert!(
            matches!(err, SimulateError::ComplementTooSmall { .. }),
            "{err}"
        );
    }

    #[test]
    fn independent_pair_sizes() {
        let g = erdos_renyi_gnm(500, 1500, &mut rng(4));
        let pair = independent_pair(&g, 50, 80, &mut rng(5)).unwrap();
        assert_eq!(pair.a.len(), 50);
        assert_eq!(pair.b.len(), 80);
    }

    #[test]
    fn oversized_requests_error() {
        let g = path(10);
        let mut s = BfsScratch::new(10);
        assert!(matches!(
            positive_pair(&g, &mut s, 11, 1, &mut rng(0)),
            Err(SimulateError::NotEnoughNodes { .. })
        ));
        assert!(independent_pair(&g, 11, 1, &mut rng(0)).is_err());
    }

    #[test]
    fn zero_noise_is_identity_for_positive() {
        let g = grid(20, 20);
        let mut s = BfsScratch::new(g.num_nodes());
        let lp = positive_pair(&g, &mut s, 30, 2, &mut rng(6)).unwrap();
        let noised = apply_positive_noise(&g, &mut s, &lp, 0.0, &mut rng(7)).unwrap();
        assert_eq!(noised, lp.to_pair());
    }

    #[test]
    fn full_noise_relocates_all_links_outside() {
        let g = erdos_renyi_gnm(2000, 4000, &mut rng(8));
        let mut s = BfsScratch::new(g.num_nodes());
        let h = 1;
        let lp = positive_pair(&g, &mut s, 25, h, &mut rng(9)).unwrap();
        let noised = apply_positive_noise(&g, &mut s, &lp, 1.0, &mut rng(10)).unwrap();
        let dist = distances_from_set(&g, &mut s, &noised.a, h);
        for &b in &noised.b {
            assert_eq!(
                dist[b as usize],
                u32::MAX,
                "fully-noised b node {b} still within V^h_a"
            );
        }
    }

    #[test]
    fn zero_noise_is_identity_for_negative() {
        let g = barabasi_albert(2000, 2, &mut rng(11));
        let mut s = BfsScratch::new(g.num_nodes());
        let pair = negative_pair(&g, &mut s, 20, 20, 1, &mut rng(12)).unwrap();
        let noised = apply_negative_noise(&g, &mut s, &pair, 1, 0.0, &mut rng(13));
        assert_eq!(noised, pair);
    }

    #[test]
    fn full_negative_noise_attracts_b_to_a() {
        let g = barabasi_albert(2000, 2, &mut rng(14));
        let mut s = BfsScratch::new(g.num_nodes());
        let h = 2;
        let pair = negative_pair(&g, &mut s, 20, 20, h, &mut rng(15)).unwrap();
        let noised = apply_negative_noise(&g, &mut s, &pair, h, 1.0, &mut rng(16));
        let dist = distances_from_set(&g, &mut s, &noised.a, h);
        for &b in &noised.b {
            assert!(
                dist[b as usize] <= h,
                "fully-attracted b node {b} not within {h} hops of V_a"
            );
        }
    }

    #[test]
    fn event_pair_normalizes() {
        let p = EventPair::new(vec![3, 1, 3], vec![2, 2]);
        assert_eq!(p.a, vec![1, 3]);
        assert_eq!(p.b, vec![2]);
        assert_eq!(p.union(), vec![1, 2, 3]);
    }

    #[test]
    fn simulation_is_seed_reproducible() {
        let g = grid(15, 15);
        let mut s = BfsScratch::new(g.num_nodes());
        let p1 = positive_pair(&g, &mut s, 20, 2, &mut rng(42)).unwrap();
        let p2 = positive_pair(&g, &mut s, 20, 2, &mut rng(42)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn sample_outside_dense_mask_falls_back_to_enumeration() {
        let g = path(100);
        // Mask everything except 3 nodes.
        let mut mask = NodeMask::new(100);
        for v in 0..100u32 {
            if v != 7 && v != 55 && v != 99 {
                mask.insert(v);
            }
        }
        let mut out = sample_outside(&g, &mask, 3, &mut rng(17));
        out.sort_unstable();
        assert_eq!(out, vec![7, 55, 99]);
    }
}
