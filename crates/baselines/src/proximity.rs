//! Simplified proximity-pattern mining (Khan et al., the paper's \[16\]).
//!
//! The original pFP algorithm propagates event information along edges
//! with a decay factor `α` and a cutoff `ε`, then mines frequent
//! itemsets over the resulting "neighborhood transactions". For the
//! two-event comparison of Table 5 we only need pairs, so this module
//! mines *pair* proximity patterns directly:
//!
//! * every node's neighborhood transaction is the set of events
//!   occurring within its `h`-vicinity;
//! * a pair `(a, b)` is a proximity pattern iff the fraction of nodes
//!   whose transaction contains both exceeds `minsup`.
//!
//! The essential property the paper exploits survives the
//! simplification: support is a *frequency* requirement, so rare event
//! pairs — however strongly correlated — fall below `minsup` and are
//! missed, while TESC detects them (Table 5).

use tesc_events::{EventId, EventStore, NodeMask};
use tesc_graph::bfs::BfsScratch;
use tesc_graph::csr::CsrGraph;
use tesc_graph::Budget;

/// A mined pair pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProximityPattern {
    /// First event (lower id).
    pub a: EventId,
    /// Second event.
    pub b: EventId,
    /// Fraction of nodes whose `h`-vicinity contains both events.
    pub support: f64,
}

/// Pair-level proximity pattern miner.
#[derive(Debug, Clone, Copy)]
pub struct ProximityMiner {
    /// Vicinity level for neighborhood transactions.
    pub h: u32,
    /// Minimum support (fraction of nodes, e.g. `10/|V|`).
    pub minsup: f64,
}

impl ProximityMiner {
    /// Create a miner.
    pub fn new(h: u32, minsup: f64) -> Self {
        assert!((0.0..=1.0).contains(&minsup), "minsup must be in [0,1]");
        ProximityMiner { h, minsup }
    }

    /// Support of a single pair: the fraction of nodes that see both
    /// events within `h` hops.
    ///
    /// Computed with two multi-source BFS sweeps (one per event) rather
    /// than one BFS per node, so the cost is `O(|V| + |E|)`.
    pub fn pair_support(
        &self,
        g: &CsrGraph,
        scratch: &mut BfsScratch,
        va: &[u32],
        vb: &[u32],
    ) -> f64 {
        if g.num_nodes() == 0 {
            return 0.0;
        }
        // Nodes within h of an a-occurrence = nodes whose vicinity
        // contains an a-occurrence (undirected graph ⇒ symmetric).
        let mut sees_a = NodeMask::new(g.num_nodes());
        let unlimited = Budget::unlimited();
        scratch
            .visit_h_vicinity(g, va, self.h, &unlimited, |v, _| {
                sees_a.insert(v);
            })
            .expect("unlimited budget");
        let mut both = 0usize;
        scratch
            .visit_h_vicinity(g, vb, self.h, &unlimited, |v, _| {
                both += sees_a.contains(v) as usize;
            })
            .expect("unlimited budget");
        both as f64 / g.num_nodes() as f64
    }

    /// Mine all event pairs from `store` whose support clears `minsup`,
    /// sorted by descending support.
    pub fn mine_pairs(&self, g: &CsrGraph, store: &EventStore) -> Vec<ProximityPattern> {
        let mut scratch = BfsScratch::new(g.num_nodes());
        let ids: Vec<EventId> = store.iter().map(|(id, _, _)| id).collect();
        let mut out = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let support = self.pair_support(g, &mut scratch, store.nodes(a), store.nodes(b));
                if support >= self.minsup {
                    out.push(ProximityPattern { a, b, support });
                }
            }
        }
        out.sort_by(|x, y| {
            y.support
                .partial_cmp(&x.support)
                .expect("supports are finite")
        });
        out
    }

    /// Would the miner report this pair? (Table 5's question.)
    pub fn detects(&self, g: &CsrGraph, scratch: &mut BfsScratch, va: &[u32], vb: &[u32]) -> bool {
        self.pair_support(g, scratch, va, vb) >= self.minsup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesc_graph::generators::{grid, path};

    #[test]
    fn support_counts_co_seeing_nodes() {
        // Path 0-1-2-3-4; a on 1, b on 3, h = 1:
        // sees_a = {0,1,2}, sees_b = {2,3,4} → both = {2} → 1/5.
        let g = path(5);
        let mut s = BfsScratch::new(5);
        let m = ProximityMiner::new(1, 0.0);
        let sup = m.pair_support(&g, &mut s, &[1], &[3]);
        assert!((sup - 0.2).abs() < 1e-12, "support = {sup}");
    }

    #[test]
    fn support_one_when_events_blanket_graph() {
        let g = grid(5, 5);
        let all: Vec<u32> = (0..25).collect();
        let mut s = BfsScratch::new(25);
        let m = ProximityMiner::new(1, 0.0);
        assert_eq!(m.pair_support(&g, &mut s, &all, &all), 1.0);
    }

    #[test]
    fn support_zero_for_far_apart_events() {
        let g = path(10);
        let mut s = BfsScratch::new(10);
        let m = ProximityMiner::new(1, 0.0);
        assert_eq!(m.pair_support(&g, &mut s, &[0], &[9]), 0.0);
    }

    #[test]
    fn minsup_filters_rare_pairs() {
        // The Table 5 phenomenon in miniature: a strongly co-located
        // but *rare* pair is dropped by the frequency threshold.
        let g = grid(10, 10);
        let mut store = EventStore::new();
        // Frequent pair: blankets a stripe of the grid.
        let freq_a: Vec<u32> = (0..50).collect();
        let freq_b: Vec<u32> = (10..60).collect();
        store.add_event("frequent_a", freq_a);
        store.add_event("frequent_b", freq_b);
        // Rare pair: two adjacent nodes in a corner.
        store.add_event("rare_a", vec![99]);
        store.add_event("rare_b", vec![98]);

        let miner = ProximityMiner::new(1, 0.10);
        let patterns = miner.mine_pairs(&g, &store);
        let has = |x: &str, y: &str| {
            let (ix, iy) = (store.id_by_name(x).unwrap(), store.id_by_name(y).unwrap());
            patterns
                .iter()
                .any(|p| (p.a == ix && p.b == iy) || (p.a == iy && p.b == ix))
        };
        assert!(
            has("frequent_a", "frequent_b"),
            "frequent pair must be mined"
        );
        assert!(
            !has("rare_a", "rare_b"),
            "rare pair must fall below minsup despite perfect co-location"
        );

        // With minsup lowered, the rare pair appears too.
        let generous = ProximityMiner::new(1, 0.0 + 1e-9);
        let patterns = generous.mine_pairs(&g, &store);
        let ra = store.id_by_name("rare_a").unwrap();
        let rb = store.id_by_name("rare_b").unwrap();
        assert!(patterns
            .iter()
            .any(|p| (p.a == ra && p.b == rb) || (p.a == rb && p.b == ra)));
    }

    #[test]
    fn mined_patterns_sorted_by_support() {
        let g = grid(6, 6);
        let mut store = EventStore::new();
        store.add_event("x", (0..18).collect());
        store.add_event("y", (9..27).collect());
        store.add_event("z", vec![35]);
        let miner = ProximityMiner::new(1, 0.0);
        let ps = miner.mine_pairs(&g, &store);
        assert_eq!(ps.len(), 3);
        assert!(ps.windows(2).all(|w| w[0].support >= w[1].support));
    }

    #[test]
    fn detects_matches_pair_support() {
        let g = path(6);
        let mut s = BfsScratch::new(6);
        let m = ProximityMiner::new(1, 0.3);
        let sup = m.pair_support(&g, &mut s, &[2], &[3]);
        assert_eq!(m.detects(&g, &mut s, &[2], &[3]), sup >= 0.3);
    }

    #[test]
    #[should_panic(expected = "minsup must be in [0,1]")]
    fn invalid_minsup_panics() {
        let _ = ProximityMiner::new(1, 1.5);
    }
}
