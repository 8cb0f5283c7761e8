//! The live serving substrate (§4.1): "The live KG is indexed using a
//! scalable inverted index and key value store. Both indexes are optimized
//! for low latency retrieval under high degrees of concurrent requests.
//! The indexes are sharded and can be replicated to support scale-out."
//!
//! [`ShardedTripleIndex`] stripes the *same* [`TripleIndex`] the stable
//! KG maintains, so stable and live serving share one probe path
//! ([`ProbeKey`]) and one posting representation. Shards partition the
//! entity-id space, so a conjunctive probe decomposes: each shard
//! intersects its own postings and the disjoint, sorted results merge in
//! id order.
//!
//! [`ReplicaKg`] serves over it: the index and its generation, nothing
//! else. Every fact it learns arrives as a [`Delta`] in the index
//! vocabulary — replayed from the log or restored from a checkpoint — so
//! a record is materialised from the index's SPO row on read rather than
//! kept twice. Live construction and curation commit through the log like
//! every other producer, so the live graph is served by the same store.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use saga_core::postings::{union_views, PostingsCursor, PostingsView};
use saga_core::{
    Delta, EntityId, EntityRecord, ExtendedTriple, FactMeta, GraphRead, IndexHeap, ProbeKey,
    Symbol, TripleIndex, Value,
};

/// Upper bound on lock stripes; shard counts are clamped to `1..=MAX_SHARDS`.
const MAX_SHARDS: usize = 1024;

/// The unified triple index under lock striping: shard `i` indexes the
/// entities with `id % shards == i`.
pub struct ShardedTripleIndex {
    shards: Vec<RwLock<TripleIndex>>,
}

impl ShardedTripleIndex {
    /// An empty index striped over `shards` locks.
    pub fn new(shards: usize) -> Self {
        let n = shards.clamp(1, MAX_SHARDS);
        ShardedTripleIndex {
            shards: (0..n).map(|_| RwLock::new(TripleIndex::new())).collect(),
        }
    }

    /// A striped index over pre-partitioned shards: `parts[i]` must hold
    /// exactly the entities with `id % parts.len() == i` — the contract
    /// [`TripleIndex::partition`] produces. Postings arrive already in
    /// their compressed form; nothing is re-indexed.
    pub fn from_partitions(parts: Vec<TripleIndex>) -> Self {
        assert!(!parts.is_empty(), "at least one shard required");
        ShardedTripleIndex {
            shards: parts.into_iter().map(RwLock::new).collect(),
        }
    }

    /// The stripe holding `id`.
    fn shard(&self, id: EntityId) -> &RwLock<TripleIndex> {
        &self.shards[(id.0 as usize) % self.shards.len()]
    }

    /// Snapshot one probe's postings across shards as a single compressed
    /// cursor. Shards partition the id space, so the per-shard block lists
    /// union disjointly — the merge runs block-by-block in the compressed
    /// domain ([`union_views`]), never materializing id vectors. Each
    /// shard lock is taken one at a time (cloning the compressed list is
    /// cheap) so a stream of cursor reads never stalls writers fleet-wide;
    /// the union itself runs lock-free.
    pub fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
        let snapshots: Vec<saga_core::BlockPostings> = self
            .shards
            .iter()
            .map(|shard| shard.read().postings(probe).to_cursor().into_list())
            .collect();
        let views: Vec<PostingsView> = snapshots
            .iter()
            .map(saga_core::BlockPostings::as_view)
            .collect();
        PostingsCursor::from_list(union_views(&views))
    }

    /// The first `limit` ids of a conjunction of probes: intersect within
    /// each shard **in the compressed domain**, then merge the (disjoint)
    /// per-shard results.
    ///
    /// Shards partition the id space, so each is evaluated independently,
    /// inline on the calling thread, holding only its own read lock and
    /// bounded by `limit` (no shard can contribute more than `limit` ids
    /// to the first `limit` of the merge); a streaming k-way merge then
    /// stops at `limit`. An empty posting short-circuits inside each
    /// shard's intersection, so there is no selectivity pre-pass. Served
    /// queries are capped at `MAX_LIMIT`, which bounds per-shard work at
    /// microseconds: parallelism across requests (server workers) is the
    /// only parallelism the serving path needs.
    pub fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        let per_shard: Vec<Vec<EntityId>> = self
            .shards
            .iter()
            .map(|shard| shard.read().probe_all_limit(probes, limit))
            .collect();
        merge_sorted_limit(per_shard, limit)
    }

    /// True if `id` is in the probe's posting list — a single-shard block
    /// probe, no cross-shard merge.
    pub fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        self.shard(id).read().postings(probe).contains(id)
    }

    /// Total posting length of a probe (selectivity estimation).
    pub fn selectivity(&self, probe: &ProbeKey) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().selectivity(probe))
            .sum()
    }

    /// Encoded payload bytes of all posting lists across shards (the
    /// postings gauge; see [`TripleIndex::index_bytes`]).
    pub fn index_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read().index_bytes()).sum()
    }

    /// Estimated heap bytes of every shard's index, by family (see
    /// [`TripleIndex::heap_bytes`]).
    pub fn heap_bytes(&self) -> IndexHeap {
        self.shards
            .iter()
            .map(|s| s.read().heap_bytes())
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

/// A log replica's serving store: the striped index and its generation,
/// nothing else — cheaply shareable. Deltas land on the index as deltas
/// ([`apply`](Self::apply)); records are materialised from the index on
/// read.
#[derive(Clone)]
pub struct ReplicaKg {
    index: Arc<ShardedTripleIndex>,
    /// Bumped on every write that lands ([`GraphRead::generation`]).
    generation: Arc<AtomicU64>,
}

impl ReplicaKg {
    /// An empty store with `shards` lock stripes.
    pub fn new(shards: usize) -> Self {
        ReplicaKg {
            index: Arc::new(ShardedTripleIndex::new(shards)),
            generation: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A store over a checkpoint-restored index, split by
    /// `subject % shards` as-is ([`TripleIndex::partition`]): postings
    /// keep their compressed containers and nothing is re-indexed.
    pub fn from_index(shards: usize, index: TripleIndex) -> Self {
        let parts = index.partition(shards.clamp(1, MAX_SHARDS));
        ReplicaKg {
            index: Arc::new(ShardedTripleIndex::from_partitions(parts)),
            // Start past the empty-store generation: a restored store is
            // never reported as an empty `new()` one, so a fleet slot's
            // generation moves across a respawn even before replay.
            generation: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Land one delta on its entity's shard under one write lock: the
    /// index's own O(delta) replay path, no record edit and no re-diff.
    pub fn apply(&self, delta: &Delta) {
        if delta.is_empty() {
            return;
        }
        let mut shard = self.index.shard(delta.entity).write();
        shard.apply(delta);
        self.bump();
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.index
            .shards
            .iter()
            .map(|s| s.read().entity_count())
            .sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The striped triple index.
    pub fn index(&self) -> &ShardedTripleIndex {
        &self.index
    }
}

/// The store-over-index layer: postings and conjunctions come from the
/// striped index, conjunctions evaluated shard by shard
/// (see [`ShardedTripleIndex::probe_all_limit`]).
impl GraphRead for ReplicaKg {
    fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
        self.index.postings_cursor(probe)
    }

    fn selectivity(&self, probe: &ProbeKey) -> usize {
        self.index.selectivity(probe)
    }

    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        self.index.probe_contains(probe, id)
    }

    /// The entity's indexed facts as simple triples, read under one shard
    /// lock and ordered by predicate name, then value — an order that
    /// depends on the log alone, so every replica of one log answers
    /// alike, in any process, however it was built. Provenance does not
    /// ride the log: each fact carries `FactMeta::default()`.
    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        let mut facts: Vec<(Arc<str>, Symbol, Value)> = {
            let shard = self.index.shard(id).read();
            if !shard.contains(id) {
                return None;
            }
            shard
                .facts_of(id)
                .map(|(p, v)| (p.text(), p, v.clone()))
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
        self.index.shard(id).read().contains(id)
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        self.index.probe_all_limit(probes, limit)
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
        live.apply(&named(1, "Warriors", "sports_team"));
        live.apply(&named(2, "Lakers", "sports_team"));
        let index = live.index();
        let shards: Vec<IndexHeap> = index.shards.iter().map(|s| s.read().heap_bytes()).collect();
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
        live.apply(&warriors);
        assert!(live.contains(EntityId(1)));
        assert_eq!(live.record(EntityId(1)).unwrap().name(), Some("Warriors"));
        live.apply(&undo(&warriors));
        assert!(!live.contains(EntityId(1)));
        assert!(live.record(EntityId(1)).is_none());
        assert!(live.postings(&name("warriors")).is_empty(), "index cleaned");
    }

    #[test]
    fn name_index_tokenizes_and_keeps_full_phrase() {
        let live = ReplicaKg::new(4);
        live.apply(&named(1, "Golden State Warriors", "sports_team"));
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
        live.apply(&game);
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
        live.apply(&named(1, "Old Name", "person"));
        live.apply(&Delta {
            entity: EntityId(1),
            added: vec![fact("name", Value::str("New Name"))],
            removed: vec![fact("name", Value::str("Old Name"))],
        });
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
            live.apply(&named(i, &format!("Player {i}"), "athlete"));
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
                sharded.apply(&player);
                single.apply(&player);
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
        live.apply(&warriors);
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
        live.apply(&undo(&warriors));
        assert!(live.generation() > g1, "removals bump too");
        assert!(!live.contains(EntityId(1)));
    }

    #[test]
    fn concurrent_reads_under_writes_are_safe() {
        let live = ReplicaKg::new(8);
        for i in 0..100u64 {
            live.apply(&named(i, &format!("E{i}"), "person"));
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
            live.apply(&named(i, &format!("E{i}"), "person"));
        }
        let hits = reader.join().unwrap();
        assert!(hits > 0);
        assert_eq!(live.len(), 200);
    }
}
