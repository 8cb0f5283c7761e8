//! The live serving substrate (§4.1): "The live KG is indexed using a
//! scalable inverted index and key value store. Both indexes are optimized
//! for low latency retrieval under high degrees of concurrent requests.
//! The indexes are sharded and can be replicated to support scale-out."
//!
//! [`ShardedTripleIndex`] partitions the *same* [`TripleIndex`] the
//! stable KG maintains, so stable and live serving share one probe path
//! ([`ProbeKey`]) and one posting representation. Partitions split the
//! entity-id space, so a conjunctive probe decomposes: each partition
//! intersects its own postings and the disjoint, sorted results merge in
//! id order.
//!
//! [`ReplicaKg`] serves over it: the partitions under one lock, and their
//! generation, nothing else. An op lands whole under the write lock and
//! every read takes the read lock once, so each read sees the store
//! between two ops, never inside one. Every fact the store learns arrives
//! as a [`Delta`] in the index vocabulary — replayed from the log or
//! restored from a checkpoint — so a record is materialised from the
//! index's SPO row on read rather than kept twice. Live construction and
//! curation commit through the log like every other producer, so the live
//! graph is served by the same store.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};
use saga_core::postings::{union_views, BlockPostings};
use saga_core::{
    Delta, EntityId, EntityRecord, ExtendedTriple, FactMeta, GraphRead, IndexHeap, ProbeKey,
    Symbol, TripleIndex, Value,
};

/// Upper bound on partitions; partition counts are clamped to
/// `1..=MAX_PARTITIONS`.
const MAX_PARTITIONS: usize = 1024;

/// The unified triple index in partitions: partition `i` indexes the
/// entities with `id % partitions == i`, the split
/// [`TripleIndex::partition`] produces. It holds no lock of its own;
/// [`ReplicaKg`] keeps every partition under one.
pub struct ShardedTripleIndex {
    parts: Vec<TripleIndex>,
}

impl ShardedTripleIndex {
    /// The partition holding `id`.
    fn part(&self, id: EntityId) -> &TripleIndex {
        &self.parts[(id.0 as usize) % self.parts.len()]
    }

    /// Encoded payload bytes of all posting lists across partitions (the
    /// postings gauge; see [`TripleIndex::index_bytes`]).
    pub fn index_bytes(&self) -> usize {
        self.parts.iter().map(TripleIndex::index_bytes).sum()
    }

    /// Estimated heap bytes of every partition, by family (see
    /// [`TripleIndex::heap_bytes`]).
    pub fn heap_bytes(&self) -> IndexHeap {
        self.parts
            .iter()
            .map(TripleIndex::heap_bytes)
            .fold(IndexHeap::default(), std::ops::Add::add)
    }
}

/// The first `limit` ids of the ascending merge of sorted, pairwise-
/// disjoint id lists: a streaming k-way merge over a min-heap of list
/// heads, `O(limit · log lists)`, that never looks past the ids it emits.
fn merge_sorted_limit(mut lists: Vec<Vec<EntityId>>, limit: usize) -> Vec<EntityId> {
    lists.retain(|list| !list.is_empty());
    if lists.len() <= 1 {
        let mut only = lists.pop().unwrap_or_default();
        only.truncate(limit);
        return only;
    }
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total.min(limit));
    // (head id, list, position of the head in that list)
    let mut heads: BinaryHeap<Reverse<(EntityId, usize, usize)>> = lists
        .iter()
        .enumerate()
        .map(|(i, list)| Reverse((list[0], i, 0)))
        .collect();
    while out.len() < limit {
        let Some(mut head) = heads.peek_mut() else {
            break;
        };
        let Reverse((id, i, at)) = *head;
        out.push(id);
        match lists[i].get(at + 1) {
            // Replacing the top in place costs one sift-down, not two.
            Some(&next) => *head = Reverse((next, i, at + 1)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    out
}

/// A log replica's serving store: the partitioned index under one lock,
/// and its generation, nothing else — cheaply shareable. An op's deltas
/// land together ([`apply`](Self::apply)); records are materialised from
/// the index on read.
#[derive(Clone)]
pub struct ReplicaKg {
    index: Arc<RwLock<ShardedTripleIndex>>,
    /// Bumped once per delta that lands ([`GraphRead::generation`]).
    generation: Arc<AtomicU64>,
}

impl ReplicaKg {
    /// An empty store in `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        Self::over(TripleIndex::new(), partitions, 0)
    }

    /// A store over a checkpoint-restored index, split by
    /// `subject % partitions` as-is ([`TripleIndex::partition`]):
    /// postings keep their compressed containers and nothing is
    /// re-indexed. Its generation starts past the empty store's, so a
    /// fleet slot's generation moves across a respawn even before replay.
    pub fn from_index(partitions: usize, index: TripleIndex) -> Self {
        Self::over(index, partitions, 1)
    }

    fn over(index: TripleIndex, partitions: usize, generation: u64) -> Self {
        let parts = index.partition(partitions.clamp(1, MAX_PARTITIONS));
        ReplicaKg {
            index: Arc::new(RwLock::new(ShardedTripleIndex { parts })),
            generation: Arc::new(AtomicU64::new(generation)),
        }
    }

    /// Land one op's deltas under one write lock, so a read sees all of
    /// the op or none of it. Each delta takes the index's own O(delta)
    /// replay path on its entity's partition — no record edit and no
    /// re-diff — and bumps the generation once.
    pub fn apply(&self, deltas: &[Delta]) {
        let mut index = self.index.write();
        let n = index.parts.len();
        for delta in deltas.iter().filter(|d| !d.is_empty()) {
            index.parts[(delta.entity.0 as usize) % n].apply(delta);
            self.generation.fetch_add(1, Ordering::Release);
        }
    }

    /// Swap this store's index with `other`'s under this store's write
    /// lock and bump this store's generation once, the way an op moves
    /// it: a read sees the old index or the new, never a mix, and the
    /// generation never moves back. `other` must be a different store.
    pub(crate) fn swap_index(&self, other: &ReplicaKg) {
        let mut index = self.index.write();
        std::mem::swap(&mut *index, &mut *other.index.write());
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        let index = self.index.read();
        index.parts.iter().map(TripleIndex::entity_count).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partitioned index, read-locked. No [`GraphRead`] call on this
    /// store may run while the guard is held: std's `RwLock` may queue a
    /// second read behind a waiting writer, and that writer waits for
    /// this guard — a deadlock.
    pub fn index(&self) -> RwLockReadGuard<'_, ShardedTripleIndex> {
        self.index.read()
    }
}

/// The store-over-index layer: every method takes the read lock once, so
/// each call answers from one state between two ops.
impl GraphRead for ReplicaKg {
    /// Partitions split the id space, so their borrowed lists union
    /// disjointly — block by block in the compressed domain
    /// ([`union_views`]), never materializing id vectors.
    fn postings_cursor(&self, probe: &ProbeKey) -> BlockPostings {
        let index = self.index.read();
        let lists: Vec<&BlockPostings> = index.parts.iter().map(|p| p.postings(probe)).collect();
        union_views(&lists)
    }

    fn selectivity(&self, probe: &ProbeKey) -> usize {
        let index = self.index.read();
        index.parts.iter().map(|p| p.selectivity(probe)).sum()
    }

    /// A block probe of `id`'s partition, no merge.
    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        self.index.read().part(id).postings(probe).contains(id)
    }

    /// The entity's indexed facts as simple triples, ordered by predicate
    /// name, then value — an order that depends on the log alone, so every
    /// replica of one log answers alike, in any process, however it was
    /// built. Provenance does not ride the log: each fact carries
    /// `FactMeta::default()`.
    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        let mut facts: Vec<(Arc<str>, Symbol, Value)> = {
            let index = self.index.read();
            let part = index.part(id);
            if !part.contains(id) {
                return None;
            }
            part.facts_of(id)
                .map(|(p, v)| (p.text(), p, v.into_owned()))
                .collect()
        };
        facts.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        let triples = facts
            .into_iter()
            .map(|(_, p, v)| ExtendedTriple::simple(id, p, v, FactMeta::default()))
            .collect();
        Some(EntityRecord { id, triples })
    }

    fn contains(&self, id: EntityId) -> bool {
        self.index.read().part(id).contains(id)
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Intersect within each partition **in the compressed domain**, then
    /// merge the (disjoint) per-partition results.
    ///
    /// No partition can contribute more than `limit` ids to the first
    /// `limit` of the merge, so each is evaluated bounded by `limit`,
    /// inline on the calling thread; a streaming k-way merge then stops at
    /// `limit`. An empty posting short-circuits inside each partition's
    /// intersection, so there is no selectivity pre-pass. Served queries
    /// are capped at `MAX_LIMIT`, which bounds per-partition work at
    /// microseconds: parallelism across requests (server workers) is the
    /// only parallelism the serving path needs.
    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        let index = self.index.read();
        let per_part = index
            .parts
            .iter()
            .map(|p| p.probe_all_limit(probes, limit))
            .collect();
        merge_sorted_limit(per_part, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, DeltaFact, KnowledgeGraph, SourceId};

    fn fact(predicate: &str, object: Value) -> DeltaFact {
        DeltaFact {
            predicate: intern(predicate),
            object,
        }
    }

    /// The delta that asserts a named, typed entity.
    fn named(id: u64, name: &str, ty: &str) -> Delta {
        Delta {
            entity: EntityId(id),
            added: vec![fact("name", Value::str(name)), fact("type", Value::str(ty))],
            removed: Vec::new(),
        }
    }

    /// The delta that takes `delta` back.
    fn undo(delta: &Delta) -> Delta {
        Delta {
            entity: delta.entity,
            added: delta.removed.clone(),
            removed: delta.added.clone(),
        }
    }

    fn name(probe: &str) -> ProbeKey {
        ProbeKey::Name(probe.into())
    }

    #[test]
    fn heap_bytes_sums_the_shards_by_family() {
        let live = ReplicaKg::new(2);
        live.apply(&[named(1, "Warriors", "sports_team")]);
        live.apply(&[named(2, "Lakers", "sports_team")]);
        let index = live.index();
        let shards: Vec<IndexHeap> = index.parts.iter().map(TripleIndex::heap_bytes).collect();
        assert!(
            shards.iter().all(|heap| heap.total() > 0),
            "one entity per shard"
        );
        let heap = index.heap_bytes();
        assert_eq!(heap, shards[0] + shards[1]);
        assert!(heap.pos > 0 && heap.tokens > 0 && heap.objects > 0 && heap.spo > 0);
        assert_eq!(heap.osp, 0, "no edges");
        // The slots and headers dwarf the encoded ids they hold.
        assert!(heap.total() > 10 * index.index_bytes());
    }

    #[test]
    fn upsert_get_remove_roundtrip() {
        let live = ReplicaKg::new(4);
        let warriors = named(1, "Warriors", "sports_team");
        live.apply(std::slice::from_ref(&warriors));
        assert!(live.contains(EntityId(1)));
        assert_eq!(live.record(EntityId(1)).unwrap().name(), Some("Warriors"));
        live.apply(&[undo(&warriors)]);
        assert!(!live.contains(EntityId(1)));
        assert!(live.record(EntityId(1)).is_none());
        assert!(live.postings(&name("warriors")).is_empty(), "index cleaned");
    }

    #[test]
    fn name_index_tokenizes_and_keeps_full_phrase() {
        let live = ReplicaKg::new(4);
        live.apply(&[named(1, "Golden State Warriors", "sports_team")]);
        assert_eq!(live.postings(&name("warriors")), vec![EntityId(1)]);
        assert_eq!(
            live.postings(&name("golden state warriors")),
            vec![EntityId(1)]
        );
        assert!(live.postings(&name("lakers")).is_empty());
    }

    #[test]
    fn literal_edge_and_type_postings() {
        let live = ReplicaKg::new(2);
        let mut game = named(1, "Game 7", "sports_game");
        game.added
            .push(fact("home_team", Value::Entity(EntityId(50))));
        game.added.push(fact("carrier", Value::str("UA")));
        live.apply(&[game]);
        assert_eq!(
            live.postings(&ProbeKey::Edge(intern("home_team"), EntityId(50))),
            vec![EntityId(1)]
        );
        assert_eq!(
            live.postings(&ProbeKey::Literal(intern("carrier"), Value::str("UA"))),
            vec![EntityId(1)]
        );
        assert_eq!(
            live.postings(&ProbeKey::Type(intern("sports_game"))),
            vec![EntityId(1)]
        );
    }

    #[test]
    fn replacing_a_record_reindexes() {
        let live = ReplicaKg::new(2);
        live.apply(&[named(1, "Old Name", "person")]);
        live.apply(&[Delta {
            entity: EntityId(1),
            added: vec![fact("name", Value::str("New Name"))],
            removed: vec![fact("name", Value::str("Old Name"))],
        }]);
        assert!(live.postings(&name("old")).is_empty());
        assert_eq!(live.postings(&name("new")), vec![EntityId(1)]);
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn from_index_partitions_a_whole_graph() {
        let mut kg = KnowledgeGraph::new();
        for i in 1..=20u64 {
            kg.add_named_entity(
                EntityId(i),
                &format!("Team {i}"),
                "sports_team",
                SourceId(1),
                0.9,
            );
        }
        let live = ReplicaKg::from_index(8, kg.index().clone());
        assert_eq!(live.len(), 20);
        assert_eq!(
            live.postings(&ProbeKey::Type(intern("sports_team"))).len(),
            20
        );
        assert_eq!(live.record(EntityId(7)).unwrap().name(), Some("Team 7"));
    }

    #[test]
    fn cross_shard_postings_merge_sorted() {
        let live = ReplicaKg::new(4); // ids spread over every shard
        for i in (1..=40u64).rev() {
            live.apply(&[named(i, &format!("Player {i}"), "athlete")]);
        }
        let all = live.postings(&ProbeKey::Type(intern("athlete")));
        let expected: Vec<EntityId> = (1..=40).map(EntityId).collect();
        assert_eq!(all, expected, "merged across shards in sorted order");
        // Conjunction across shards.
        let hits = live.probe_all(&[ProbeKey::Type(intern("athlete")), name("player")]);
        assert_eq!(hits, expected);
    }

    #[test]
    fn multi_shard_conjunction_matches_single_shard() {
        // Per-shard postings on either side of the 256 ids where a list
        // leaves the tiny tier (5 and 263 per shard at eight shards):
        // eight shards and one must give the same sorted answer, whole
        // and under a budget.
        for n in [40u64, 2104] {
            let sharded = ReplicaKg::new(8);
            let single = ReplicaKg::new(1);
            for i in 1..=n {
                let player = named(i, &format!("Player {i}"), "athlete");
                sharded.apply(std::slice::from_ref(&player));
                single.apply(std::slice::from_ref(&player));
            }
            let probes = [ProbeKey::Type(intern("athlete")), name("player")];
            let expected: Vec<EntityId> = (1..=n).map(EntityId).collect();
            assert_eq!(sharded.probe_all(&probes), expected);
            assert_eq!(single.probe_all(&probes), expected);
            let refs: Vec<&ProbeKey> = probes.iter().collect();
            for limit in [0, 1, 7, 8, 9, n as usize, n as usize + 1] {
                let prefix = &expected[..limit.min(expected.len())];
                assert_eq!(sharded.probe_all_limit(&refs, limit), prefix, "n={n}");
                assert_eq!(single.probe_all_limit(&refs, limit), prefix, "n={n}");
            }
        }
    }

    #[test]
    fn graph_read_api_over_the_live_store() {
        let live = ReplicaKg::new(4);
        let g0 = live.generation();
        let warriors = named(1, "Golden State Warriors", "sports_team");
        live.apply(std::slice::from_ref(&warriors));
        assert!(live.generation() > g0, "writes bump generation");
        assert_eq!(
            live.postings(&ProbeKey::Type(intern("sports_team"))),
            vec![EntityId(1)]
        );
        assert!(live.probe_contains(&name("warriors"), EntityId(1)));
        assert_eq!(
            live.resolve_name("Golden State Warriors"),
            vec![EntityId(1)]
        );
        assert_eq!(
            live.record(EntityId(1)).unwrap().name(),
            Some("Golden State Warriors")
        );
        let g1 = live.generation();
        live.apply(&[undo(&warriors)]);
        assert!(live.generation() > g1, "removals bump too");
        assert!(!live.contains(EntityId(1)));
    }

    #[test]
    fn an_op_lands_whole_and_bumps_once_per_delta() {
        let live = ReplicaKg::new(2);
        let tag = || fact("tag", Value::str("x"));
        let on = |id: u64| Delta {
            entity: EntityId(id),
            added: vec![tag()],
            removed: Vec::new(),
        };
        live.apply(&[on(1)]);
        let g0 = live.generation();
        // Entities 1 and 2 sit in different partitions; the empty delta
        // changes nothing and bumps nothing.
        live.apply(&[undo(&on(1)), Delta::default(), on(2)]);
        assert_eq!(live.generation(), g0 + 2);
        let probe = ProbeKey::Literal(intern("tag"), Value::str("x"));
        assert_eq!(live.postings(&probe), vec![EntityId(2)]);
        assert_eq!(live.probe_all_limit(&[&probe], 10), vec![EntityId(2)]);
        assert!(!live.contains(EntityId(1)));
    }

    #[test]
    fn concurrent_reads_under_writes_are_safe() {
        let live = ReplicaKg::new(8);
        for i in 0..100u64 {
            live.apply(&[named(i, &format!("E{i}"), "person")]);
        }
        let l2 = live.clone();
        let reader = std::thread::spawn(move || {
            let mut hits = 0;
            for _ in 0..1000 {
                for i in 0..100u64 {
                    if l2.record(EntityId(i)).is_some() {
                        hits += 1;
                    }
                }
            }
            hits
        });
        for i in 100..200u64 {
            live.apply(&[named(i, &format!("E{i}"), "person")]);
        }
        let hits = reader.join().unwrap();
        assert!(hits > 0);
        assert_eq!(live.len(), 200);
    }
}
