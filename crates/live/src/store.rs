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
//! Two stores serve over it. [`ReplicaKg`] is what a log replica serves:
//! the index and its generation, nothing else — every fact a replica
//! learns arrives as a [`Delta`] in the index
//! vocabulary, so a record is materialised from the index's SPO row on
//! read rather than kept twice. [`LiveKg`] is what live construction and
//! curation write: a `ReplicaKg` plus entity records with real
//! provenance, sharded across lock-striped maps beside the index (point
//! reads take one stripe read-lock).

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use saga_core::postings::{union_views, PostingsCursor, PostingsView};
use saga_core::{
    Delta, EntityId, EntityRecord, ExtendedTriple, FactMeta, FxHashMap, GraphRead, ProbeKey,
    Symbol, TripleIndex, Value,
};

/// Upper bound on lock stripes; shard counts are clamped to `1..=MAX_SHARDS`.
const MAX_SHARDS: usize = 1024;

/// The unified triple index under lock striping: shard `i` indexes the
/// entities with `id % shards == i`. Replaces the legacy single-lock
/// `InvertedGraphIndex`.
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

    /// (Re-)index an entity record (diff-based; only its own shard locks).
    pub fn index(&self, record: &EntityRecord) {
        self.shard(record.id).write().update_entity(record);
    }

    /// Drop an entity's postings.
    pub fn unindex(&self, id: EntityId) {
        self.shard(id).write().remove_entity(id);
    }

    /// Snapshot one probe's postings across shards as a single compressed
    /// cursor. Shards partition the id space, so the per-shard block lists
    /// union disjointly — the merge runs block-by-block in the compressed
    /// domain ([`union_views`]), never materializing id vectors. Each
    /// shard lock is taken one at a time (cloning the compressed list is
    /// cheap) so a stream of cursor reads never stalls writers fleet-wide;
    /// the union itself runs lock-free. The cursor carries the combined
    /// per-shard fingerprint (the same hash
    /// [`probe_fingerprint`](Self::probe_fingerprint) reports); each
    /// shard's stamp is sampled under the same lock as that shard's
    /// snapshot, and stamps are monotone, so a write racing the walk can
    /// only make the cursor look stale — never falsely fresh.
    pub fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
        let mut h = rustc_hash::FxHasher::default();
        let snapshots: Vec<saga_core::BlockPostings> = self
            .shards
            .iter()
            .map(|shard| {
                let idx = shard.read();
                h.write_u64(idx.probe_fingerprint(probe));
                idx.postings(probe).to_cursor().into_list()
            })
            .collect();
        let views: Vec<PostingsView> = snapshots
            .iter()
            .map(saga_core::BlockPostings::as_view)
            .collect();
        let mut list = union_views(&views);
        list.set_stamp(h.finish());
        PostingsCursor::from_list(list)
    }

    /// Merge one probe's postings across shards into a sorted id list (the
    /// materializing convenience over [`postings_cursor`](Self::postings_cursor)).
    pub fn postings(&self, probe: &ProbeKey) -> Vec<EntityId> {
        self.postings_cursor(probe).to_vec()
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

    /// Combined per-shard fingerprint of one probe's posting (plan-cache
    /// key): changes iff the posting changed in *any* shard, and is
    /// untouched by writes to other posting lists.
    pub fn probe_fingerprint(&self, probe: &ProbeKey) -> u64 {
        let mut h = rustc_hash::FxHasher::default();
        for shard in &self.shards {
            h.write_u64(shard.read().probe_fingerprint(probe));
        }
        h.finish()
    }

    /// Batch fingerprints for a dependency set: one pass taking each
    /// shard lock once for all probes, instead of once per probe — the
    /// plan-cache revalidation path.
    pub fn probe_fingerprints(&self, probes: &[&ProbeKey]) -> Vec<u64> {
        if probes.is_empty() {
            return Vec::new();
        }
        let mut hashers: Vec<rustc_hash::FxHasher> = probes
            .iter()
            .map(|_| rustc_hash::FxHasher::default())
            .collect();
        for shard in &self.shards {
            let idx = shard.read();
            for (h, probe) in hashers.iter_mut().zip(probes.iter()) {
                h.write_u64(idx.probe_fingerprint(probe));
            }
        }
        hashers.into_iter().map(|h| h.finish()).collect()
    }

    /// Compressed heap bytes of all posting lists across shards (the
    /// postings memory gauge).
    pub fn index_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read().index_bytes()).sum()
    }

    /// Entities whose name contains token / exact phrase `needle`
    /// (lowercased internally).
    pub fn by_name(&self, needle: &str) -> Vec<EntityId> {
        self.postings(&ProbeKey::Name(needle.to_lowercase()))
    }

    /// Entities asserting the literal fact `(pred, value)`.
    pub fn by_literal(&self, pred: Symbol, value: &Value) -> Vec<EntityId> {
        self.postings(&ProbeKey::Literal(pred, value.clone()))
    }

    /// Entities with an edge `(pred) -> target`.
    pub fn by_edge(&self, pred: Symbol, target: EntityId) -> Vec<EntityId> {
        self.postings(&ProbeKey::Edge(pred, target))
    }

    /// Entities of a type.
    pub fn by_type(&self, ty: Symbol) -> Vec<EntityId> {
        self.postings(&ProbeKey::Type(ty))
    }

    /// Entities referencing `target` through any predicate (reverse edges).
    pub fn referencing(&self, target: EntityId) -> Vec<EntityId> {
        let per_shard: Vec<Vec<EntityId>> = self
            .shards
            .iter()
            .map(|s| s.read().referencing(target).to_vec())
            .collect();
        merge_sorted_limit(per_shard, usize::MAX)
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
    /// Bumped on every write that lands — the [`GraphRead`] plan-cache
    /// signal.
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
            // Start past the empty-store generation so plan caches built
            // against a fresh `new()` store never validate against a
            // restored one.
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

/// The store-over-index layer: postings, conjunctions and fingerprints
/// come from the striped index, conjunctions evaluated shard by shard
/// (see [`ShardedTripleIndex::probe_all_limit`]).
impl GraphRead for ReplicaKg {
    fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
        self.index.postings_cursor(probe)
    }

    fn selectivity(&self, probe: &ProbeKey) -> usize {
        self.index.selectivity(probe)
    }

    fn probe_fingerprint(&self, probe: &ProbeKey) -> u64 {
        self.index.probe_fingerprint(probe)
    }

    fn probe_fingerprints(&self, probes: &[&ProbeKey]) -> Vec<u64> {
        self.index.probe_fingerprints(probes)
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

/// The sharded live KG: a [`ReplicaKg`] plus the entity records it
/// indexes, kept in lock-striped maps (one stripe per index shard).
#[derive(Clone)]
pub struct LiveKg {
    records: Arc<Vec<RwLock<FxHashMap<EntityId, EntityRecord>>>>,
    base: ReplicaKg,
}

impl LiveKg {
    /// A live KG with `shards` lock stripes.
    pub fn new(shards: usize) -> Self {
        let n = shards.clamp(1, MAX_SHARDS);
        LiveKg {
            records: Arc::new((0..n).map(|_| RwLock::new(FxHashMap::default())).collect()),
            base: ReplicaKg::new(n),
        }
    }

    fn stripe(&self, id: EntityId) -> &RwLock<FxHashMap<EntityId, EntityRecord>> {
        &self.records[(id.0 as usize) % self.records.len()]
    }

    /// Insert or replace an entity record (index maintained atomically with
    /// respect to this entity).
    pub fn upsert(&self, record: EntityRecord) {
        let mut map = self.stripe(record.id).write();
        self.base.index.index(&record);
        map.insert(record.id, record);
        self.base.bump();
    }

    /// Remove an entity.
    pub fn remove(&self, id: EntityId) -> bool {
        let mut map = self.stripe(id).write();
        match map.remove(&id) {
            Some(_) => {
                self.base.index.unindex(id);
                self.base.bump();
                true
            }
            None => false,
        }
    }

    /// Point lookup (clones the record; serving reads are snapshot-style).
    pub fn get(&self, id: EntityId) -> Option<EntityRecord> {
        self.stripe(id).read().get(&id).cloned()
    }

    /// True if the entity exists.
    pub fn contains(&self, id: EntityId) -> bool {
        self.stripe(id).read().contains_key(&id)
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.records.iter().map(|s| s.read().len()).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The striped triple index.
    pub fn index(&self) -> &ShardedTripleIndex {
        self.base.index()
    }

    /// Load a stable-KG view: bulk-upsert every entity of the snapshot
    /// ("the live KG is the union of a view of the stable graph with
    /// real-time live sources").
    pub fn load_stable(&self, kg: &saga_core::KnowledgeGraph) {
        for record in kg.entities() {
            self.upsert(record.clone());
        }
    }
}

/// The index half is [`ReplicaKg`]'s; point reads come from the record
/// maps, so they carry the provenance construction wrote.
impl GraphRead for LiveKg {
    fn postings_cursor(&self, probe: &ProbeKey) -> PostingsCursor {
        self.base.postings_cursor(probe)
    }

    fn selectivity(&self, probe: &ProbeKey) -> usize {
        self.base.selectivity(probe)
    }

    fn probe_fingerprint(&self, probe: &ProbeKey) -> u64 {
        self.base.probe_fingerprint(probe)
    }

    fn probe_fingerprints(&self, probes: &[&ProbeKey]) -> Vec<u64> {
        self.base.probe_fingerprints(probes)
    }

    fn probe_contains(&self, probe: &ProbeKey, id: EntityId) -> bool {
        self.base.probe_contains(probe, id)
    }

    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        self.get(id)
    }

    fn contains(&self, id: EntityId) -> bool {
        LiveKg::contains(self, id)
    }

    fn generation(&self) -> u64 {
        self.base.generation()
    }

    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        self.base.probe_all_limit(probes, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, ExtendedTriple, FactMeta, KnowledgeGraph, SourceId};

    fn record(id: u64, name: &str, ty: &str) -> EntityRecord {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(id), name, ty, SourceId(1), 0.9);
        kg.entity(EntityId(id)).unwrap().clone()
    }

    #[test]
    fn upsert_get_remove_roundtrip() {
        let live = LiveKg::new(4);
        live.upsert(record(1, "Warriors", "sports_team"));
        assert!(live.contains(EntityId(1)));
        assert_eq!(live.get(EntityId(1)).unwrap().name(), Some("Warriors"));
        assert!(live.remove(EntityId(1)));
        assert!(!live.remove(EntityId(1)));
        assert!(live.get(EntityId(1)).is_none());
        assert!(live.index().by_name("warriors").is_empty(), "index cleaned");
    }

    #[test]
    fn name_index_tokenizes_and_keeps_full_phrase() {
        let live = LiveKg::new(4);
        live.upsert(record(1, "Golden State Warriors", "sports_team"));
        assert_eq!(live.index().by_name("warriors"), vec![EntityId(1)]);
        assert_eq!(
            live.index().by_name("golden state warriors"),
            vec![EntityId(1)]
        );
        assert!(live.index().by_name("lakers").is_empty());
    }

    #[test]
    fn literal_edge_and_type_postings() {
        let live = LiveKg::new(2);
        let mut rec = record(1, "Game 7", "sports_game");
        rec.triples.push(ExtendedTriple::simple(
            EntityId(1),
            intern("home_team"),
            Value::Entity(EntityId(50)),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        rec.triples.push(ExtendedTriple::simple(
            EntityId(1),
            intern("carrier"),
            Value::str("UA"),
            FactMeta::from_source(SourceId(1), 0.9),
        ));
        live.upsert(rec);
        assert_eq!(
            live.index().by_edge(intern("home_team"), EntityId(50)),
            vec![EntityId(1)]
        );
        assert_eq!(
            live.index()
                .by_literal(intern("carrier"), &Value::str("UA")),
            vec![EntityId(1)]
        );
        assert_eq!(
            live.index().by_type(intern("sports_game")),
            vec![EntityId(1)]
        );
        assert_eq!(live.index().referencing(EntityId(50)), vec![EntityId(1)]);
    }

    #[test]
    fn replacing_a_record_reindexes() {
        let live = LiveKg::new(2);
        live.upsert(record(1, "Old Name", "person"));
        live.upsert(record(1, "New Name", "person"));
        assert!(live.index().by_name("old").is_empty());
        assert_eq!(live.index().by_name("new"), vec![EntityId(1)]);
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn load_stable_bulk_indexes_everything() {
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
        let live = LiveKg::new(8);
        live.load_stable(&kg);
        assert_eq!(live.len(), 20);
        assert_eq!(live.index().by_type(intern("sports_team")).len(), 20);
    }

    #[test]
    fn cross_shard_postings_merge_sorted() {
        let live = LiveKg::new(4); // ids spread over every shard
        for i in (1..=40u64).rev() {
            live.upsert(record(i, &format!("Player {i}"), "athlete"));
        }
        let all = live.index().by_type(intern("athlete"));
        let expected: Vec<EntityId> = (1..=40).map(EntityId).collect();
        assert_eq!(all, expected, "merged across shards in sorted order");
        // Conjunction across shards.
        let hits = live.probe_all(&[
            ProbeKey::Type(intern("athlete")),
            ProbeKey::Name("player".into()),
        ]);
        assert_eq!(hits, expected);
    }

    #[test]
    fn multi_shard_conjunction_matches_single_shard() {
        // Per-shard postings on either side of the 256 ids where a list
        // leaves the tiny tier (5 and 263 per shard at eight shards):
        // eight shards and one must give the same sorted answer, whole
        // and under a budget.
        for n in [40u64, 2104] {
            let sharded = LiveKg::new(8);
            let single = LiveKg::new(1);
            for i in 1..=n {
                sharded.upsert(record(i, &format!("Player {i}"), "athlete"));
                single.upsert(record(i, &format!("Player {i}"), "athlete"));
            }
            let probes = [
                ProbeKey::Type(intern("athlete")),
                ProbeKey::Name("player".into()),
            ];
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
        let live = LiveKg::new(4);
        let g0 = GraphRead::generation(&live);
        live.upsert(record(1, "Golden State Warriors", "sports_team"));
        assert!(GraphRead::generation(&live) > g0, "writes bump generation");
        assert_eq!(
            live.postings(&ProbeKey::Type(intern("sports_team"))),
            vec![EntityId(1)]
        );
        assert!(live.probe_contains(&ProbeKey::Name("warriors".into()), EntityId(1)));
        assert_eq!(
            live.resolve_name("Golden State Warriors"),
            vec![EntityId(1)]
        );
        assert_eq!(
            GraphRead::record(&live, EntityId(1)).unwrap().name(),
            Some("Golden State Warriors")
        );
        let g1 = GraphRead::generation(&live);
        live.remove(EntityId(1));
        assert!(GraphRead::generation(&live) > g1, "removals bump too");
        assert!(!GraphRead::contains(&live, EntityId(1)));
    }

    #[test]
    fn cursor_fingerprints_match_probe_fingerprint() {
        let live = LiveKg::new(4);
        live.upsert(record(1, "Alpha", "song"));
        let probe = ProbeKey::Type(intern("song"));
        assert_eq!(
            live.postings_cursor(&probe).fingerprint(),
            live.probe_fingerprint(&probe),
            "sharded cursors carry the combined fingerprint"
        );
        let fp0 = live.probe_fingerprint(&probe);
        live.upsert(record(2, "Beta", "song"));
        assert_ne!(live.probe_fingerprint(&probe), fp0, "write moves it");
        assert_eq!(
            live.postings_cursor(&probe).fingerprint(),
            live.probe_fingerprint(&probe)
        );
        // The batch form agrees with the per-probe form.
        let miss = ProbeKey::Name("nope".into());
        assert_eq!(
            live.probe_fingerprints(&[&probe, &miss]),
            vec![
                live.probe_fingerprint(&probe),
                live.probe_fingerprint(&miss)
            ]
        );
    }

    #[test]
    fn concurrent_reads_under_writes_are_safe() {
        let live = LiveKg::new(8);
        for i in 0..100u64 {
            live.upsert(record(i, &format!("E{i}"), "person"));
        }
        let l2 = live.clone();
        let reader = std::thread::spawn(move || {
            let mut hits = 0;
            for _ in 0..1000 {
                for i in 0..100u64 {
                    if l2.get(EntityId(i)).is_some() {
                        hits += 1;
                    }
                }
            }
            hits
        });
        for i in 100..200u64 {
            live.upsert(record(i, &format!("E{i}"), "person"));
        }
        let hits = reader.join().unwrap();
        assert!(hits > 0);
        assert_eq!(live.len(), 200);
    }
}
