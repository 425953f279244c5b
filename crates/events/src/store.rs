//! Event registry and dense node-set membership.

use tesc_graph::NodeId;

/// Identifier of an event within an [`EventStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

/// Failure modes of fallible [`EventStore`] mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventStoreError {
    /// An event with this name is already registered.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// The given [`EventId`] does not name an event of this store.
    UnknownEvent {
        /// The offending id.
        id: EventId,
    },
}

impl std::fmt::Display for EventStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventStoreError::DuplicateName { name } => {
                write!(f, "duplicate event name {name:?}")
            }
            EventStoreError::UnknownEvent { id } => {
                write!(f, "unknown event id {}", id.0)
            }
        }
    }
}

impl std::error::Error for EventStoreError {}

/// Registry of named events and their occurrence node sets
/// (`V_a` in the paper's notation).
///
/// Occurrence lists are kept sorted and deduplicated, so set operations
/// (union for `V_{a∪b}`, intersection for transaction-correlation
/// baselines) are linear merges.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    names: Vec<String>,
    occurrences: Vec<Vec<NodeId>>,
}

impl EventStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an event with its occurrence nodes (deduplicated and
    /// sorted internally). Returns its id, or
    /// [`EventStoreError::DuplicateName`] if the name is taken.
    pub fn try_add_event(
        &mut self,
        name: impl Into<String>,
        nodes: Vec<NodeId>,
    ) -> Result<EventId, EventStoreError> {
        let name = name.into();
        if self.id_by_name(&name).is_some() {
            return Err(EventStoreError::DuplicateName { name });
        }
        let mut nodes = nodes;
        nodes.sort_unstable();
        nodes.dedup();
        let id = EventId(self.names.len() as u32);
        self.names.push(name);
        self.occurrences.push(nodes);
        Ok(id)
    }

    /// Panicking convenience wrapper over [`EventStore::try_add_event`]
    /// for tests and static scenario builders.
    ///
    /// # Panics
    ///
    /// Panics if an event with the same name already exists.
    pub fn add_event(&mut self, name: impl Into<String>, nodes: Vec<NodeId>) -> EventId {
        match self.try_add_event(name, nodes) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Append occurrence nodes to an existing event (the ingestion
    /// path of a streaming workload). New nodes are merged into the
    /// sorted occurrence set; duplicates are no-ops. Returns how many
    /// nodes were actually new.
    pub fn add_occurrences(
        &mut self,
        id: EventId,
        nodes: &[NodeId],
    ) -> Result<usize, EventStoreError> {
        if id.0 as usize >= self.names.len() {
            return Err(EventStoreError::UnknownEvent { id });
        }
        let mut extra = nodes.to_vec();
        extra.sort_unstable();
        extra.dedup();
        let existing = &mut self.occurrences[id.0 as usize];
        let before = existing.len();
        let merged = merge_union(existing, &extra);
        *existing = merged;
        Ok(existing.len() - before)
    }

    /// Number of registered events.
    #[inline]
    pub fn num_events(&self) -> usize {
        self.names.len()
    }

    /// The sorted occurrence node set `V_a`.
    #[inline]
    pub fn nodes(&self, id: EventId) -> &[NodeId] {
        &self.occurrences[id.0 as usize]
    }

    /// Number of occurrences `|V_a|`.
    #[inline]
    pub fn size(&self, id: EventId) -> usize {
        self.nodes(id).len()
    }

    /// Event name.
    #[inline]
    pub fn name(&self, id: EventId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Look an event up by name.
    pub fn id_by_name(&self, name: &str) -> Option<EventId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| EventId(i as u32))
    }

    /// Estimated resident heap bytes of the registry (names plus
    /// occurrence lists), for memory reporting.
    pub fn resident_bytes(&self) -> usize {
        let names: usize = self.names.iter().map(|n| n.capacity()).sum();
        let occ: usize = self
            .occurrences
            .iter()
            .map(|o| o.capacity() * std::mem::size_of::<NodeId>())
            .sum();
        names + occ
    }

    /// 64-bit content fingerprint (FNV-1a over event count, names and
    /// sorted occurrence lists), computed on each call. Two stores with
    /// equal fingerprints hold the same events in the same
    /// registration order — used by the persistence layer to prove a
    /// recovered store bit-identical to the never-crashed one.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(PRIME);
        };
        mix(self.names.len() as u64);
        for (name, nodes) in self.names.iter().zip(&self.occurrences) {
            mix(name.len() as u64);
            for &b in name.as_bytes() {
                mix(b as u64);
            }
            mix(nodes.len() as u64);
            for &n in nodes {
                mix(n as u64);
            }
        }
        h
    }

    /// Iterate `(id, name, nodes)` over all events.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &str, &[NodeId])> {
        self.names
            .iter()
            .zip(&self.occurrences)
            .enumerate()
            .map(|(i, (n, o))| (EventId(i as u32), n.as_str(), o.as_slice()))
    }

    /// All unordered event pairs `(a, b)` with `a < b`, in ascending
    /// id order — the candidate set of an all-pairs ranking run
    /// (`E·(E−1)/2` pairs for `E` registered events).
    pub fn event_pairs(&self) -> Vec<(EventId, EventId)> {
        let n = self.names.len() as u32;
        let mut out = Vec::with_capacity((n as usize * n.saturating_sub(1) as usize) / 2);
        for a in 0..n {
            for b in a + 1..n {
                out.push((EventId(a), EventId(b)));
            }
        }
        out
    }

    /// All pairs that include `event`, in ascending partner-id order —
    /// the candidate set for ranking one event against every other
    /// (`E−1` pairs). Each pair is returned in the same canonical
    /// `(a, b)` with `a < b` orientation as [`EventStore::event_pairs`],
    /// so a pair carries identical labels, content-addressed seeds and
    /// scores whether it came from a one-vs-all or an all-pairs
    /// enumeration.
    ///
    /// # Panics
    ///
    /// Panics if `event` does not name an event of this store.
    pub fn pairs_with(&self, event: EventId) -> Vec<(EventId, EventId)> {
        assert!(
            (event.0 as usize) < self.names.len(),
            "unknown event id {}",
            event.0
        );
        (0..self.names.len() as u32)
            .filter(|&other| other != event.0)
            .map(|other| {
                let partner = EventId(other);
                (event.min(partner), event.max(partner))
            })
            .collect()
    }

    /// Sorted union `V_a ∪ V_b` — the paper's `V_{a∪b}` (all event nodes).
    pub fn union(&self, a: EventId, b: EventId) -> Vec<NodeId> {
        merge_union(self.nodes(a), self.nodes(b))
    }

    /// Sorted intersection `V_a ∩ V_b` (nodes carrying both events).
    pub fn intersection(&self, a: EventId, b: EventId) -> Vec<NodeId> {
        let (mut i, mut j) = (0, 0);
        let (xa, xb) = (self.nodes(a), self.nodes(b));
        let mut out = Vec::new();
        while i < xa.len() && j < xb.len() {
            match xa[i].cmp(&xb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(xa[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }
}

/// Merge two sorted deduplicated node lists into their sorted union.
pub fn merge_union(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Dense bitset over node ids for O(1) membership during BFS sweeps.
///
/// The density computation (Eq. 2) tests every node of every reference
/// vicinity for event membership; a sorted-`Vec` binary search would add
/// a `log |V_a|` factor to the innermost loop, so we spend `|V|/8` bytes
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMask {
    bits: Vec<u64>,
    num_nodes: usize,
    count: usize,
}

impl NodeMask {
    /// All-empty mask over `num_nodes` ids.
    pub fn new(num_nodes: usize) -> Self {
        NodeMask {
            bits: vec![0; num_nodes.div_ceil(64)],
            num_nodes,
            count: 0,
        }
    }

    /// Mask with the given members set.
    pub fn from_nodes(num_nodes: usize, nodes: &[NodeId]) -> Self {
        let mut m = Self::new(num_nodes);
        for &v in nodes {
            m.insert(v);
        }
        m
    }

    /// Mask over `num_nodes` ids adopting raw words in the
    /// [`NodeMask::words`] layout — how a BFS visited bitmap becomes a
    /// mask without a per-node pass.
    ///
    /// # Panics
    ///
    /// Panics unless `words` has exactly `num_nodes.div_ceil(64)`
    /// entries with every bit at or beyond `num_nodes` clear.
    pub fn from_words(num_nodes: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            num_nodes.div_ceil(64),
            "word count does not cover {num_nodes} nodes"
        );
        if let (Some(&last), false) = (words.last(), num_nodes.is_multiple_of(64)) {
            assert_eq!(last >> (num_nodes % 64), 0, "bits set beyond num_nodes");
        }
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        NodeMask {
            bits: words,
            num_nodes,
            count,
        }
    }

    /// `self ∪ other` — one word-wise OR, the size by popcount.
    ///
    /// # Panics
    ///
    /// Panics if the masks cover different id ranges.
    pub fn union(&self, other: &NodeMask) -> NodeMask {
        assert_eq!(
            self.num_nodes, other.num_nodes,
            "masks over different id ranges"
        );
        let bits = self.bits.iter().zip(&other.bits).map(|(a, b)| a | b);
        Self::from_words(self.num_nodes, bits.collect())
    }

    /// Rank → member lookup over this mask's ascending member order.
    pub fn selector(&self) -> MaskSelect<'_> {
        let mut prefix = Vec::with_capacity(self.bits.len());
        let mut acc = 0u32;
        for w in &self.bits {
            prefix.push(acc);
            acc += w.count_ones();
        }
        MaskSelect {
            words: &self.bits,
            prefix,
            len: self.count,
        }
    }

    /// Number of ids the mask covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of set members.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Is the mask empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        debug_assert!((v as usize) < self.num_nodes);
        self.bits[v as usize / 64] & (1u64 << (v % 64)) != 0
    }

    /// Insert `v`; returns whether it was newly inserted.
    pub fn insert(&mut self, v: NodeId) -> bool {
        assert!((v as usize) < self.num_nodes, "node {v} out of mask range");
        let slot = &mut self.bits[v as usize / 64];
        let bit = 1u64 << (v % 64);
        if *slot & bit == 0 {
            *slot |= bit;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Remove `v`; returns whether it was present.
    pub fn remove(&mut self, v: NodeId) -> bool {
        assert!((v as usize) < self.num_nodes, "node {v} out of mask range");
        let slot = &mut self.bits[v as usize / 64];
        let bit = 1u64 << (v % 64);
        if *slot & bit != 0 {
            *slot &= !bit;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// The mask's raw `u64` words, bit `v % 64` of word `v / 64` set ⇔
    /// `v` is a member (`num_nodes().div_ceil(64)` words; bits beyond
    /// `num_nodes()` are always clear). This is the bitset density
    /// kernel's interface: intersecting a BFS visited bitmap against an
    /// event mask is one AND + popcount per 64 nodes instead of one
    /// probe per visited node.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// `|self ∩ W|` where `W` is a visited bitmap over the same id
    /// space (shorter slices are treated as zero-padded). One word-wise
    /// AND + popcount sweep — the single-mask form of the word-level
    /// intersection; the density hot path fuses every event mask a
    /// reference node is scored against into one sweep over
    /// [`NodeMask::words`] instead (`tesc_graph::multi_mask_counts`).
    pub fn intersection_count_words(&self, words: &[u64]) -> usize {
        self.bits
            .iter()
            .zip(words)
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Collect the members in ascending order.
    pub fn to_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.count);
        for (w, &word) in self.bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push((w * 64) as NodeId + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Select over a [`NodeMask`] ([`NodeMask::selector`]): per-word prefix
/// popcounts built once in `O(|V|/64)`, then each rank resolves with a
/// binary search over words plus an in-word bit scan — so drawing `k`
/// members by rank never materializes the member list.
#[derive(Debug, Clone)]
pub struct MaskSelect<'a> {
    words: &'a [u64],
    /// `prefix[w]` = members in `words[..w]`.
    prefix: Vec<u32>,
    len: usize,
}

impl MaskSelect<'_> {
    /// The `rank`-th smallest member (0-based) —
    /// `mask.to_nodes()[rank]` without the list.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below the mask's member count.
    pub fn select(&self, rank: usize) -> NodeId {
        assert!(rank < self.len, "rank {rank} beyond the mask's members");
        let w = self.prefix.partition_point(|&p| p as usize <= rank) - 1;
        let mut bits = self.words[w];
        for _ in self.prefix[w] as usize..rank {
            bits &= bits - 1;
        }
        (w * 64) as NodeId + bits.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_words_union_and_select_agree_with_member_lists() {
        // Sizes around the word boundary, incl. |V| % 64 != 0.
        for n in [1usize, 63, 64, 65, 130, 192] {
            let a: Vec<NodeId> = (0..n as NodeId).filter(|v| v % 3 == 0).collect();
            let b: Vec<NodeId> = (0..n as NodeId).filter(|v| v % 7 == 1).collect();
            let (ma, mb) = (NodeMask::from_nodes(n, &a), NodeMask::from_nodes(n, &b));
            assert_eq!(NodeMask::from_words(n, ma.words().to_vec()), ma);
            let u = ma.union(&mb);
            assert_eq!(u.to_nodes(), merge_union(&a, &b));
            assert_eq!(u.len(), u.to_nodes().len());
            let sel = u.selector();
            for (rank, &v) in u.to_nodes().iter().enumerate() {
                assert_eq!(sel.select(rank), v, "n {n} rank {rank}");
            }
        }
        assert!(NodeMask::new(0).union(&NodeMask::new(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond the mask's members")]
    fn select_past_the_last_member_panics() {
        NodeMask::from_nodes(70, &[3, 69]).selector().select(2);
    }

    #[test]
    #[should_panic(expected = "bits set beyond num_nodes")]
    fn from_words_rejects_stray_tail_bits() {
        NodeMask::from_words(65, vec![0, 0b10]);
    }

    #[test]
    fn fingerprint_tracks_content_and_order() {
        let mut a = EventStore::new();
        a.add_event("x", vec![1, 2]);
        a.add_event("y", vec![3]);
        let mut b = EventStore::new();
        b.add_event("x", vec![2, 1, 2]); // sorts/dedups to the same set
        b.add_event("y", vec![3]);
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = EventStore::new();
        c.add_event("y", vec![3]); // same content, different order
        c.add_event("x", vec![1, 2]);
        assert_ne!(a.fingerprint(), c.fingerprint());

        let before = a.fingerprint();
        a.add_occurrences(EventId(0), &[9]).unwrap();
        assert_ne!(a.fingerprint(), before);
    }

    #[test]
    fn store_sorts_and_dedups() {
        let mut s = EventStore::new();
        let a = s.add_event("a", vec![5, 1, 3, 1, 5]);
        assert_eq!(s.nodes(a), &[1, 3, 5]);
        assert_eq!(s.size(a), 3);
        assert_eq!(s.name(a), "a");
    }

    #[test]
    fn store_lookup_by_name() {
        let mut s = EventStore::new();
        let a = s.add_event("wireless", vec![1]);
        let b = s.add_event("sensor", vec![2]);
        assert_eq!(s.id_by_name("wireless"), Some(a));
        assert_eq!(s.id_by_name("sensor"), Some(b));
        assert_eq!(s.id_by_name("nope"), None);
        assert_eq!(s.num_events(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate event name")]
    fn duplicate_names_rejected() {
        let mut s = EventStore::new();
        s.add_event("x", vec![]);
        s.add_event("x", vec![1]);
    }

    #[test]
    fn try_add_event_reports_duplicates_as_err() {
        let mut s = EventStore::new();
        let id = s.try_add_event("x", vec![2, 1]).unwrap();
        assert_eq!(s.nodes(id), &[1, 2]);
        let err = s.try_add_event("x", vec![3]).unwrap_err();
        assert_eq!(err, EventStoreError::DuplicateName { name: "x".into() });
        assert_eq!(s.num_events(), 1, "failed insert must not register");
        assert!(err.to_string().contains("duplicate event name"));
    }

    #[test]
    fn add_occurrences_merges_sorted() {
        let mut s = EventStore::new();
        let id = s.add_event("a", vec![1, 5]);
        assert_eq!(s.add_occurrences(id, &[3, 5, 3, 9]).unwrap(), 2);
        assert_eq!(s.nodes(id), &[1, 3, 5, 9]);
        assert_eq!(s.add_occurrences(id, &[1, 9]).unwrap(), 0);
        assert_eq!(s.nodes(id), &[1, 3, 5, 9]);
    }

    #[test]
    fn add_occurrences_unknown_id_is_err() {
        let mut s = EventStore::new();
        let err = s.add_occurrences(EventId(3), &[1]).unwrap_err();
        assert_eq!(err, EventStoreError::UnknownEvent { id: EventId(3) });
        assert!(err.to_string().contains("unknown event id 3"));
    }

    #[test]
    fn event_pairs_enumerates_all_unordered_pairs() {
        let mut s = EventStore::new();
        for name in ["a", "b", "c", "d"] {
            s.add_event(name, vec![]);
        }
        let pairs = s.event_pairs();
        assert_eq!(pairs.len(), 6, "C(4,2) pairs");
        for (a, b) in &pairs {
            assert!(a < b, "pairs are ordered (a < b)");
        }
        let mut dedup = pairs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), pairs.len(), "no duplicate pairs");
        assert_eq!(pairs[0], (EventId(0), EventId(1)));
        assert_eq!(pairs[5], (EventId(2), EventId(3)));
        assert!(EventStore::new().event_pairs().is_empty());
        let mut one = EventStore::new();
        one.add_event("solo", vec![1]);
        assert!(one.event_pairs().is_empty(), "one event has no pairs");
    }

    #[test]
    fn pairs_with_covers_every_partner_once_in_canonical_orientation() {
        let mut s = EventStore::new();
        for name in ["a", "b", "c", "d"] {
            s.add_event(name, vec![]);
        }
        let focus = EventId(2);
        let pairs = s.pairs_with(focus);
        // Same (a < b) orientation as event_pairs, so one-vs-all and
        // all-pairs enumerations agree on each pair's identity.
        assert_eq!(
            pairs,
            vec![
                (EventId(0), focus),
                (EventId(1), focus),
                (focus, EventId(3)),
            ]
        );
        for p in &pairs {
            assert!(
                s.event_pairs().contains(p),
                "orientation matches event_pairs"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown event id 7")]
    fn pairs_with_unknown_event_panics() {
        let _ = EventStore::new().pairs_with(EventId(7));
    }

    #[test]
    fn union_and_intersection() {
        let mut s = EventStore::new();
        let a = s.add_event("a", vec![1, 3, 5, 7]);
        let b = s.add_event("b", vec![2, 3, 6, 7, 9]);
        assert_eq!(s.union(a, b), vec![1, 2, 3, 5, 6, 7, 9]);
        assert_eq!(s.intersection(a, b), vec![3, 7]);
    }

    #[test]
    fn union_disjoint_and_identical() {
        assert_eq!(merge_union(&[1, 2], &[3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(merge_union(&[1, 2], &[1, 2]), vec![1, 2]);
        assert_eq!(merge_union(&[], &[5]), vec![5]);
        assert_eq!(merge_union(&[], &[]), Vec::<NodeId>::new());
    }

    #[test]
    fn iter_visits_all() {
        let mut s = EventStore::new();
        s.add_event("a", vec![1]);
        s.add_event("b", vec![2]);
        let collected: Vec<_> = s
            .iter()
            .map(|(_, n, o)| (n.to_string(), o.to_vec()))
            .collect();
        assert_eq!(
            collected,
            vec![("a".into(), vec![1u32]), ("b".into(), vec![2u32])]
        );
    }

    #[test]
    fn mask_basics() {
        let mut m = NodeMask::new(130);
        assert!(m.is_empty());
        assert!(m.insert(0));
        assert!(m.insert(64));
        assert!(m.insert(129));
        assert!(!m.insert(64), "double insert reports false");
        assert_eq!(m.len(), 3);
        assert!(m.contains(0) && m.contains(64) && m.contains(129));
        assert!(!m.contains(1) && !m.contains(128));
        assert!(m.remove(64));
        assert!(!m.remove(64));
        assert_eq!(m.len(), 2);
        assert_eq!(m.to_nodes(), vec![0, 129]);
    }

    #[test]
    fn mask_from_nodes_round_trips() {
        let nodes = vec![3, 17, 63, 64, 65, 99];
        let m = NodeMask::from_nodes(100, &nodes);
        assert_eq!(m.to_nodes(), nodes);
        assert_eq!(m.len(), nodes.len());
    }

    #[test]
    fn mask_from_nodes_with_duplicates() {
        let m = NodeMask::from_nodes(10, &[1, 1, 2, 2, 2]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of mask range")]
    fn mask_out_of_range_insert_panics() {
        let mut m = NodeMask::new(10);
        m.insert(10);
    }

    #[test]
    fn mask_words_expose_members() {
        let m = NodeMask::from_nodes(130, &[0, 63, 64, 129]);
        let w = m.words();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], 1 | (1u64 << 63));
        assert_eq!(w[1], 1);
        assert_eq!(w[2], 1 << 1);
        let total: usize = w.iter().map(|x| x.count_ones() as usize).sum();
        assert_eq!(total, m.len());
    }

    #[test]
    fn intersection_count_words_matches_per_node_probes() {
        let members = [3u32, 17, 63, 64, 65, 99, 127];
        let visited = [0u32, 3, 64, 99, 100, 127];
        let m = NodeMask::from_nodes(128, &members);
        let v = NodeMask::from_nodes(128, &visited);
        let expect = visited.iter().filter(|&&x| m.contains(x)).count();
        assert_eq!(m.intersection_count_words(v.words()), expect);
        // Shorter visited slices are zero-padded (word 0 holds the
        // members below id 64; the only shared one there is 3).
        assert_eq!(m.intersection_count_words(&v.words()[..1]), 1);
        assert_eq!(m.intersection_count_words(&[]), 0);
    }
}
