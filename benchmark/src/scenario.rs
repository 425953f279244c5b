//! Workload inputs: graph, events, candidate pairs, test mix and the
//! ingest stream, all derived from the run's `--seed` and nothing else.

use std::collections::BTreeSet;

use crate::api::{
    self, CsrGraph, DblpConfig, DblpScenario, EventPair, EventStore, NodeId, Rng, SamplerKind,
    Tail, TescConfig, TwitterConfig, TwitterScenario,
};

/// Full size, or the ~1/20 smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the committed bounds were measured at.
    Full,
    /// `--smoke`: every count divided by about twenty.
    Smoke,
}

impl Scale {
    fn of(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One single-test operation: which pair, under which configuration.
#[derive(Debug, Clone, Copy)]
pub struct TestOp {
    /// Index into [`Dataset::test_pairs`].
    pub pair: usize,
    /// `h`, sample size, sampler.
    pub cfg: TescConfig,
}

/// One ingest commit: new edges plus occurrences for one event.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Two edges absent from the graph and from every earlier delta.
    pub edges: Vec<(NodeId, NodeId)>,
    /// The registered event that grows.
    pub event: String,
    /// Three new occurrence nodes.
    pub nodes: Vec<NodeId>,
}

/// Everything a workload runs on.
pub struct Dataset {
    /// The graph.
    pub graph: CsrGraph,
    /// Named events registered with the context / server.
    pub events: EventStore,
    /// Registered name pairs (`/test` targets, top-k focus events).
    pub registered: Vec<(String, String)>,
    /// Candidate set of the ranking arms.
    pub rank_pairs: Vec<EventPair>,
    /// Configuration of the ranking arms (top-10, upper tail).
    pub rank_cfg: TescConfig,
    /// Pairs the single-test operations draw from.
    pub test_pairs: Vec<EventPair>,
    /// One cycle of the single-test mix; only whole cycles are timed,
    /// so the mix behind every percentile is exactly this list.
    pub test_cycle: Vec<TestOp>,
    /// The ingest stream, one entry per commit.
    pub deltas: Vec<Delta>,
}

impl Dataset {
    /// A dataset whose single tests run over its ranking candidates,
    /// one after the other, under the ranking configuration.
    fn ranking(
        graph: CsrGraph,
        events: EventStore,
        registered: Vec<(String, String)>,
        rank_pairs: Vec<EventPair>,
        rank_cfg: TescConfig,
    ) -> Dataset {
        let test_cycle = (0..rank_pairs.len())
            .map(|pair| TestOp {
                pair,
                cfg: rank_cfg,
            })
            .collect();
        Dataset {
            graph,
            events,
            registered,
            test_pairs: rank_pairs.clone(),
            rank_pairs,
            rank_cfg,
            test_cycle,
            deltas: Vec::new(),
        }
    }
}

/// Vicinity-index depth of every workload (tests at `h = 3` run on the
/// samplers that do not need the index).
pub const INDEX_LEVEL: u32 = 2;
/// `K` of every ranking.
pub const TOP_K: usize = 10;
/// Commits in the ingest stream (enough for the longest run).
const MAX_DELTAS: usize = 256;

/// Build the inputs of `workload` from `seed`.
pub fn build(workload: &str, seed: u64, scale: Scale) -> Dataset {
    // One stream per concern, so resizing one part of a workload does
    // not reshuffle the others.
    let salt = |k: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
    let mut ds = match workload {
        "single-test-sweep" => sweep(salt(1), salt(2), scale),
        "rank-shared-dblp" => shared_dblp(salt(1), salt(2), scale),
        "rank-skewed-twitter" => skewed_twitter(salt(1), salt(2), scale),
        "serve-mixed" => serve_mixed(salt(1), salt(2), scale),
        other => panic!("unknown workload {other}"),
    };
    ds.deltas = deltas(&ds.graph, &ds.registered, salt(3));
    ds
}

fn twitter(num_nodes: usize, seed: u64) -> TwitterScenario {
    TwitterScenario::build(
        TwitterConfig {
            num_nodes,
            ..TwitterConfig::default()
        },
        &mut api::rng(seed),
    )
}

/// Register the first `count` pairs' events under `e{i}a` / `e{i}b`.
fn register(pairs: &[EventPair], count: usize) -> (EventStore, Vec<(String, String)>) {
    let mut events = EventStore::new();
    let mut names = Vec::new();
    for (i, p) in pairs.iter().take(count).enumerate() {
        let (a, b) = (format!("e{i}a"), format!("e{i}b"));
        events.add_event(a.clone(), p.a.clone());
        events.add_event(b.clone(), p.b.clone());
        names.push((a, b));
    }
    (events, names)
}

fn cfg(h: u32, n: usize, sampler: SamplerKind) -> TescConfig {
    TescConfig::new(h)
        .with_sample_size(n)
        .with_sampler(sampler)
        .with_tail(Tail::Upper)
}

/// `single-test-sweep`: distinct planted pairs, each tested once.
fn sweep(graph_seed: u64, plant_seed: u64, scale: Scale) -> Dataset {
    let s = twitter(scale.of(100_000, 5_000), graph_seed);
    let mut rng = api::rng(plant_seed);
    const SIZES: [usize; 5] = [40, 80, 150, 250, 400];
    let test_pairs: Vec<EventPair> = (0..scale.of(640, 64))
        .map(|i| {
            let size = SIZES[i % SIZES.len()];
            // 2 correlated : 1 anti-correlated : 5 background. Radius-2
            // balls around two anchors always meet on a hub-heavy
            // graph, so the anti-correlated pairs stay at radius 1.
            let ((a, b), kind) = match i % 8 {
                0 | 5 => (s.plant_correlated_pair(size, 2, &mut rng), "cor"),
                3 => (s.plant_anticorrelated_pair(size, 1, &mut rng), "anti"),
                _ => (s.plant_background_pair(size, &mut rng), "bg"),
            };
            EventPair::new(format!("{kind}{i}"), a, b)
        })
        .collect();

    // 25 % h=1, 50 % h=2, 25 % h=3, samplers cycling; h=3 only on the
    // samplers that work beyond the index depth.
    use SamplerKind::{BatchBfs, Rejection, WholeGraph};
    let imp = SamplerKind::Importance { batch_size: 3 };
    let mix: [(u32, SamplerKind); 16] = [
        (2, BatchBfs),
        (1, BatchBfs),
        (2, Rejection),
        (3, BatchBfs),
        (2, imp),
        (1, Rejection),
        (2, WholeGraph),
        (3, WholeGraph),
        (2, BatchBfs),
        (1, imp),
        (2, Rejection),
        (3, BatchBfs),
        (2, imp),
        (1, WholeGraph),
        (2, WholeGraph),
        (3, WholeGraph),
    ];
    // Pair i meets mix slot i mod 16; with 5 sizes and 8 kinds cycling
    // underneath, every (h, sampler) sees every size and kind.
    let test_cycle = (0..test_pairs.len())
        .map(|i| {
            let (h, sampler) = mix[i % mix.len()];
            TestOp {
                pair: i,
                cfg: cfg(h, 400, sampler),
            }
        })
        .collect();
    let (events, registered) = register(&test_pairs, 16);
    Dataset {
        graph: s.graph,
        events,
        registered,
        rank_pairs: test_pairs[..scale.of(32, 16)].to_vec(),
        rank_cfg: cfg(2, 400, BatchBfs),
        test_pairs,
        test_cycle,
        deltas: Vec::new(),
    }
}

/// `rank-shared-dblp`: all pairs of 24 keyword events.
fn shared_dblp(graph_seed: u64, plant_seed: u64, scale: Scale) -> Dataset {
    let communities = scale.of(400, 40);
    let d = DblpScenario::build(
        DblpConfig {
            num_communities: communities,
            community_size: 50,
            ..DblpConfig::default()
        },
        &mut api::rng(graph_seed),
    );
    let mut rng = api::rng(plant_seed);
    let mut events = EventStore::new();
    let mut registered = Vec::new();
    let mut named: Vec<(String, Vec<NodeId>)> = Vec::new();
    for i in 0..scale.of(12, 4) {
        let (a, b) = d.plant_positive_keyword_pair(communities / 10, 20, 0.25, &mut rng);
        let (na, nb) = (format!("kw{i}a"), format!("kw{i}b"));
        events.add_event(na.clone(), a.clone());
        events.add_event(nb.clone(), b.clone());
        registered.push((na.clone(), nb.clone()));
        named.push((na, a));
        named.push((nb, b));
    }
    let mut rank_pairs = Vec::new();
    for i in 0..named.len() {
        for j in i + 1..named.len() {
            rank_pairs.push(EventPair::new(
                format!("{}x{}", named[i].0, named[j].0),
                named[i].1.clone(),
                named[j].1.clone(),
            ));
        }
    }
    let rank_cfg = cfg(2, 300, SamplerKind::BatchBfs);
    Dataset::ranking(d.graph, events, registered, rank_pairs, rank_cfg)
}

/// A Twitter-like graph with `hot` correlated pairs followed by
/// `background` independent ones, all with private 40-node events; the
/// first 16 pairs' events are registered. Sample size `n`.
fn hot_and_background(
    graph_seed: u64,
    plant_seed: u64,
    scale: Scale,
    hot: usize,
    background: usize,
    n: usize,
) -> Dataset {
    let s = twitter(scale.of(100_000, 5_000), graph_seed);
    let mut rng = api::rng(plant_seed);
    let mut pairs = Vec::new();
    for i in 0..hot {
        let (a, b) = s.plant_correlated_pair(40, 1, &mut rng);
        pairs.push(EventPair::new(format!("hot{i}"), a, b));
    }
    for i in 0..background {
        let (a, b) = s.plant_background_pair(40, &mut rng);
        pairs.push(EventPair::new(format!("bg{i}"), a, b));
    }
    let (events, registered) = register(&pairs, 16);
    let rank_cfg = cfg(2, n, SamplerKind::BatchBfs);
    Dataset::ranking(s.graph, events, registered, pairs, rank_cfg)
}

/// `rank-skewed-twitter`: 10 correlated pairs in a sea of background.
fn skewed_twitter(graph_seed: u64, plant_seed: u64, scale: Scale) -> Dataset {
    hot_and_background(graph_seed, plant_seed, scale, 10, scale.of(190, 20), 400)
}

/// `serve-mixed`: 4 correlated + 12 background registered pairs.
fn serve_mixed(graph_seed: u64, plant_seed: u64, scale: Scale) -> Dataset {
    hot_and_background(graph_seed, plant_seed, scale, 4, 12, 300)
}

/// The ingest stream: per commit two edges the graph does not have yet
/// and three occurrences for one registered event, round-robin.
///
/// Edge endpoints come from the later half of the id space — on the
/// preferential-attachment graphs those are the peripheral nodes, so a
/// commit's index refresh touches a neighbourhood of ordinary size
/// instead of, one commit in twenty, a hub's.
fn deltas(graph: &CsrGraph, registered: &[(String, String)], seed: u64) -> Vec<Delta> {
    let mut rng = api::rng(seed);
    let n = graph.num_nodes() as NodeId;
    let mut used: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    (0..MAX_DELTAS)
        .map(|i| {
            let mut edges = Vec::with_capacity(2);
            while edges.len() < 2 {
                let (u, v) = (rng.gen_range(n / 2..n), rng.gen_range(n / 2..n));
                let e = (u.min(v), u.max(v));
                if u != v && !graph.has_edge(u, v) && used.insert(e) {
                    edges.push(e);
                }
            }
            let (a, b) = &registered[(i / 2) % registered.len()];
            Delta {
                edges,
                event: if i % 2 == 0 { a.clone() } else { b.clone() },
                nodes: (0..3).map(|_| rng.gen_range(0..n)).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        let a = build("rank-skewed-twitter", 7, Scale::Smoke);
        let b = build("rank-skewed-twitter", 7, Scale::Smoke);
        let c = build("rank-skewed-twitter", 8, Scale::Smoke);
        assert_eq!(a.graph.fingerprint(), b.graph.fingerprint());
        assert_eq!(a.rank_pairs, b.rank_pairs);
        assert_eq!(a.deltas[5].edges, b.deltas[5].edges);
        assert_ne!(a.graph.fingerprint(), c.graph.fingerprint());
        assert_ne!(a.rank_pairs, c.rank_pairs);
    }

    #[test]
    fn sweep_mix_is_a_quarter_half_quarter() {
        let ds = build("single-test-sweep", 1, Scale::Smoke);
        assert_eq!(ds.test_cycle.len() % 16, 0);
        let share = |h: u32| {
            ds.test_cycle.iter().filter(|op| op.cfg.h == h).count() as f64
                / ds.test_cycle.len() as f64
        };
        assert_eq!((share(1), share(2), share(3)), (0.25, 0.5, 0.25));
        // h = 3 never asks for a sampler that needs a deeper index.
        assert!(ds.test_cycle.iter().filter(|op| op.cfg.h == 3).all(|op| {
            matches!(
                op.cfg.sampler,
                SamplerKind::BatchBfs | SamplerKind::WholeGraph
            )
        }));
        // Every operation has a pair of its own.
        let distinct: BTreeSet<usize> = ds.test_cycle.iter().map(|op| op.pair).collect();
        assert_eq!(distinct.len(), ds.test_cycle.len());
    }

    #[test]
    fn deltas_only_add_new_distinct_edges() {
        let ds = build("serve-mixed", 3, Scale::Smoke);
        let mut seen = BTreeSet::new();
        for d in &ds.deltas {
            assert_eq!((d.edges.len(), d.nodes.len()), (2, 3));
            for &(u, v) in &d.edges {
                assert!(u < v && !ds.graph.has_edge(u, v));
                assert!(seen.insert((u, v)), "edge reused across commits");
            }
            assert!(ds.events.id_by_name(&d.event).is_some());
        }
        assert_eq!(ds.registered.len(), 16);
        assert_eq!(ds.events.num_events(), 32);
    }

    #[test]
    fn dblp_ranks_all_pairs_of_its_events() {
        let ds = build("rank-shared-dblp", 2, Scale::Smoke);
        let e = ds.events.num_events();
        assert_eq!(ds.rank_pairs.len(), e * (e - 1) / 2);
    }
}
