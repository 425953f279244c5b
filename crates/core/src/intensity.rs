//! Event **intensity** — the paper's second future-work extension
//! (Sec. 6): "consider event intensity on nodes, e.g. the frequency by
//! which an author used a keyword".
//!
//! An [`Intensities`] assigns every occurrence node a positive weight.
//! The density of Eq. 2 generalizes from the occurrence *count* to the
//! intensity *mass* in the vicinity:
//!
//! ```text
//! s^h_a(r) = Σ_{v ∈ V_a ∩ V^h_r} w_a(v)  /  |V^h_r| .
//! ```
//!
//! Everything else — reference-node eligibility, the samplers, the
//! Kendall/Spearman machinery, the tie-corrected significance — is
//! unchanged: reference nodes are still drawn uniformly from
//! `V^h_{a∪b}` (eligibility is presence-based, so the importance
//! sampler's inclusion probabilities stay valid), and the statistic
//! still compares density ranks.

use tesc_graph::bfs::BfsScratch;
use tesc_graph::budget::{Budget, Interrupted};
use tesc_graph::Adjacency;
use tesc_graph::NodeId;

/// Per-node event intensities: a sparse non-negative weight vector
/// over node ids. Nodes with weight 0 are not occurrences.
#[derive(Debug, Clone, PartialEq)]
pub struct Intensities {
    /// Dense weight array, `len == num_nodes`.
    values: Vec<f64>,
    /// Sorted occurrence nodes (positive weight).
    support: Vec<NodeId>,
}

impl Intensities {
    /// Build from `(node, weight)` pairs over a graph with `num_nodes`
    /// nodes. Duplicate nodes accumulate their weights.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes, or non-finite / negative weights.
    pub fn from_pairs(num_nodes: usize, pairs: &[(NodeId, f64)]) -> Self {
        let mut values = vec![0.0; num_nodes];
        for &(v, w) in pairs {
            assert!(
                (v as usize) < num_nodes,
                "node {v} out of range for {num_nodes} nodes"
            );
            assert!(
                w.is_finite() && w >= 0.0,
                "intensity must be finite and ≥ 0, got {w}"
            );
            values[v as usize] += w;
        }
        let support: Vec<NodeId> = (0..num_nodes as NodeId)
            .filter(|&v| values[v as usize] > 0.0)
            .collect();
        Intensities { values, support }
    }

    /// Unit intensities on the given occurrence nodes — reduces the
    /// weighted density to the paper's original count density.
    pub fn uniform(num_nodes: usize, nodes: &[NodeId]) -> Self {
        let pairs: Vec<(NodeId, f64)> = {
            let mut sorted = nodes.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.into_iter().map(|v| (v, 1.0)).collect()
        };
        Self::from_pairs(num_nodes, &pairs)
    }

    /// The weight of a node (0 for non-occurrences).
    #[inline]
    pub fn weight(&self, v: NodeId) -> f64 {
        self.values[v as usize]
    }

    /// Sorted occurrence nodes (positive weight).
    #[inline]
    pub fn support(&self) -> &[NodeId] {
        &self.support
    }

    /// Number of ids covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.values.len()
    }

    /// Total intensity mass.
    pub fn total(&self) -> f64 {
        self.support.iter().map(|&v| self.values[v as usize]).sum()
    }
}

/// Intensity-weighted per-reference-node measurements, gathered in a
/// single `h`-hop BFS (the weighted analogue of
/// [`crate::density::DensityCounts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntensityCounts {
    /// `|V^h_r|`.
    pub vicinity_size: usize,
    /// `Σ w_a(v)` over the vicinity.
    pub mass_a: f64,
    /// `Σ w_b(v)` over the vicinity.
    pub mass_b: f64,
    /// `|V_{a∪b} ∩ V^h_r|` (presence-based, for sampler weights).
    pub count_union: usize,
}

impl IntensityCounts {
    /// Weighted density of `a`.
    #[inline]
    pub fn density_a(&self) -> f64 {
        self.mass_a / self.vicinity_size as f64
    }

    /// Weighted density of `b`.
    #[inline]
    pub fn density_b(&self) -> f64 {
        self.mass_b / self.vicinity_size as f64
    }
}

/// Gather [`IntensityCounts`] for reference node `r` with one BFS.
/// `budget` is checked per frontier level; an interrupted search
/// returns the typed error instead of partial masses.
pub fn intensity_counts<G: Adjacency>(
    g: &G,
    scratch: &mut BfsScratch,
    r: NodeId,
    h: u32,
    a: &Intensities,
    b: &Intensities,
    budget: &Budget,
) -> Result<IntensityCounts, Interrupted> {
    let mut mass_a = 0.0;
    let mut mass_b = 0.0;
    let mut count_union = 0usize;
    let vicinity_size = scratch.visit_h_vicinity(g, &[r], h, budget, |v, _| {
        let wa = a.weight(v);
        let wb = b.weight(v);
        mass_a += wa;
        mass_b += wb;
        count_union += (wa > 0.0 || wb > 0.0) as usize;
    })?;
    Ok(IntensityCounts {
        vicinity_size,
        mass_a,
        mass_b,
        count_union,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::density_counts;
    use tesc_events::NodeMask;
    use tesc_graph::generators::path;

    /// [`intensity_counts`] under no budget.
    fn counts(
        g: &tesc_graph::CsrGraph,
        s: &mut BfsScratch,
        r: NodeId,
        h: u32,
        a: &Intensities,
        b: &Intensities,
    ) -> IntensityCounts {
        intensity_counts(g, s, r, h, a, b, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn from_pairs_accumulates_and_supports() {
        let i = Intensities::from_pairs(5, &[(1, 2.0), (3, 1.0), (1, 0.5), (4, 0.0)]);
        assert_eq!(i.weight(1), 2.5);
        assert_eq!(i.weight(3), 1.0);
        assert_eq!(i.weight(0), 0.0);
        assert_eq!(
            i.support(),
            &[1, 3],
            "zero-weight nodes are not occurrences"
        );
        assert!((i.total() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_reduces_to_count_density() {
        let g = path(6);
        let nodes_a = [0u32, 1];
        let nodes_b = [4u32];
        let ia = Intensities::uniform(6, &nodes_a);
        let ib = Intensities::uniform(6, &nodes_b);
        let ma = NodeMask::from_nodes(6, &nodes_a);
        let mb = NodeMask::from_nodes(6, &nodes_b);
        let mut s = BfsScratch::new(6);
        for r in 0..6u32 {
            for h in [0u32, 1, 2] {
                let w = counts(&g, &mut s, r, h, &ia, &ib);
                let c = density_counts(&g, &mut s, r, h, &ma, &mb, &Budget::unlimited()).unwrap();
                assert_eq!(w.vicinity_size, c.vicinity_size);
                assert!((w.density_a() - c.density_a()).abs() < 1e-12);
                assert!((w.density_b() - c.density_b()).abs() < 1e-12);
                assert_eq!(w.count_union, c.count_union);
            }
        }
    }

    #[test]
    fn intensity_shifts_density_mass() {
        // Same occurrence node, ten times the intensity: density ×10.
        let g = path(4);
        let light = Intensities::from_pairs(4, &[(1, 1.0)]);
        let heavy = Intensities::from_pairs(4, &[(1, 10.0)]);
        let mut s = BfsScratch::new(4);
        let wl = counts(&g, &mut s, 0, 1, &light, &light);
        let wh = counts(&g, &mut s, 0, 1, &heavy, &heavy);
        assert!((wh.density_a() - 10.0 * wl.density_a()).abs() < 1e-12);
        assert_eq!(
            wl.count_union, wh.count_union,
            "presence is intensity-blind"
        );
    }

    #[test]
    fn density_vectors_align() {
        let g = path(5);
        let ia = Intensities::from_pairs(5, &[(0, 3.0)]);
        let ib = Intensities::from_pairs(5, &[(4, 2.0)]);
        let mut s = BfsScratch::new(5);
        let (sa, sb): (Vec<f64>, Vec<f64>) = [0, 2, 4]
            .iter()
            .map(|&r| {
                let c = counts(&g, &mut s, r, 1, &ia, &ib);
                (c.density_a(), c.density_b())
            })
            .unzip();
        assert_eq!(sa.len(), 3);
        assert!((sa[0] - 3.0 / 2.0).abs() < 1e-12); // V^1_0 = {0,1}
        assert_eq!(sb[0], 0.0);
        assert_eq!(sa[1], 0.0);
        assert!((sb[2] - 2.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn cancelled_budget_interrupts_the_intensity_bfs() {
        let g = path(5);
        let ia = Intensities::from_pairs(5, &[(0, 3.0)]);
        let ib = Intensities::from_pairs(5, &[(4, 2.0)]);
        let mut s = BfsScratch::new(5);
        let cancelled = Budget::cancellable();
        cancelled.cancel();
        let err = intensity_counts(&g, &mut s, 2, 2, &ia, &ib, &cancelled)
            .expect_err("a cancelled budget must stop the search");
        assert!(err.cancelled);
        // The scratch stays reusable: the next search is exact.
        assert_eq!(counts(&g, &mut s, 2, 2, &ia, &ib).vicinity_size, 5);
    }

    #[test]
    #[should_panic(expected = "finite and ≥ 0")]
    fn negative_weight_rejected() {
        let _ = Intensities::from_pairs(3, &[(0, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = Intensities::from_pairs(3, &[(5, 1.0)]);
    }
}
