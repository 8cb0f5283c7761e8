//! The in-memory canonical knowledge graph.
//!
//! `KnowledgeGraph` is the base data that the construction pipeline (sole
//! producer, §3.1) updates and from which every store in the Graph Engine
//! derives its view. It owns:
//!
//! * the entity records (all extended triples, grouped by subject),
//! * the `same_as` link table mapping `(source, local id)` → KG entity
//!   (full provenance of the linking process, §2.3 step 5),
//! * non-destructive integration primitives: provenance-merging upserts,
//!   per-source retraction (on-demand deletion) and volatile-partition
//!   overwrite (§2.4),
//! * the unified [`TripleIndex`], maintained incrementally on every
//!   mutation.
//!
//! Every mutation computes a [`Delta`] and hands it to its caller — the
//! staged commit path folds them into the
//! [`CommitReceipt`](crate::CommitReceipt), and the write-ahead writer
//! ships them through the durable oplog. Derived stores follow that log
//! (§3.1); the KG itself retains no in-process changelog.

use std::sync::Arc;

use crate::index::{Delta, TripleIndex};
use crate::well_known;
use crate::{intern, EntityId, EntityRecord, ExtendedTriple, FxHashMap, SourceId, Symbol, Value};

/// Aggregate statistics about the KG (drives the Fig. 12 growth experiment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KgStats {
    /// Number of canonical entities.
    pub entities: usize,
    /// Number of extended-triple facts.
    pub facts: usize,
    /// Number of `same_as` source links.
    pub links: usize,
}

/// The canonical knowledge graph.
///
/// All mutation funnels through the staged commit (see [`crate::write`]):
/// [`WriteBatch::commit`](crate::WriteBatch::commit), or the Graph
/// Engine's write-ahead `LoggedWriter`. The crate-internal mutators below
/// are the direct path the in-crate equivalence property tests compare it
/// against (and the fixture fast path of
/// [`add_named_entity`](Self::add_named_entity)).
#[derive(Clone, Debug, Default)]
pub struct KnowledgeGraph {
    pub(crate) entities: FxHashMap<EntityId, EntityRecord>,
    /// `same_as` provenance: which source entity maps to which KG entity,
    /// keyed per source so a `&str` local id probes it.
    pub(crate) links: FxHashMap<SourceId, FxHashMap<Arc<str>, EntityId>>,
    /// The unified triple index, maintained incrementally by every mutator.
    index: TripleIndex,
}

impl KnowledgeGraph {
    /// An empty KG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entities.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Total number of facts across all entities.
    pub fn fact_count(&self) -> usize {
        self.entities.values().map(EntityRecord::fact_count).sum()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> KgStats {
        KgStats {
            entities: self.entity_count(),
            facts: self.fact_count(),
            links: self.links.values().map(FxHashMap::len).sum(),
        }
    }

    /// Fetch an entity record.
    pub fn entity(&self, id: EntityId) -> Option<&EntityRecord> {
        self.entities.get(&id)
    }

    /// Mutate an entity record in place, then reconcile the index with
    /// whatever the closure did. Returns `false` if the entity is unknown.
    ///
    /// Test-only reference semantics for the staged commit path, checked
    /// by the in-crate equivalence properties: producers stage edits
    /// through [`WriteBatch::mutate`](crate::WriteBatch::mutate), which
    /// folds the exact delta into the commit receipt.
    #[cfg(test)]
    pub(crate) fn mutate_entity(
        &mut self,
        id: EntityId,
        f: impl FnOnce(&mut EntityRecord),
    ) -> bool {
        match self.entities.get_mut(&id) {
            Some(record) => {
                f(record);
                self.reindex_entity(id);
                true
            }
            None => false,
        }
    }

    /// Re-derive the index entries of one entity from its current record
    /// (diff-based — unchanged facts are untouched). Returns the delta.
    /// Test-only, like [`mutate_entity`](Self::mutate_entity).
    #[cfg(test)]
    pub(crate) fn reindex_entity(&mut self, id: EntityId) -> Delta {
        match self.entities.get(&id) {
            Some(record) => {
                let now_empty = record.triples.is_empty();
                let delta = self.index.update_entity(record);
                // An entity whose record went empty is dropped entirely,
                // matching the retraction paths' behaviour.
                if now_empty {
                    self.entities.remove(&id);
                }
                delta
            }
            None => self.index.remove_entity(id),
        }
    }

    /// The unified triple index over this graph (SPO/POS/OSP probes).
    pub fn index(&self) -> &TripleIndex {
        &self.index
    }

    /// Mutable index access for the staged-commit apply path.
    pub(crate) fn index_mut(&mut self) -> &mut TripleIndex {
        &mut self.index
    }

    /// Iterate all entity records.
    pub fn entities(&self) -> impl Iterator<Item = &EntityRecord> {
        self.entities.values()
    }

    /// Iterate all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.entities.keys().copied()
    }

    /// Iterate every fact in the graph.
    pub fn triples(&self) -> impl Iterator<Item = &ExtendedTriple> {
        self.entities.values().flat_map(|r| r.triples.iter())
    }

    /// True if the entity exists.
    pub fn contains(&self, id: EntityId) -> bool {
        self.entities.contains_key(&id)
    }

    /// Record a `same_as` link from a source entity to a KG entity.
    /// Crate-internal: stage links through
    /// [`WriteBatch::link`](crate::WriteBatch::link).
    /// Reference semantics for the staged commit path — exercised by the
    /// in-crate equivalence property tests; production writers commit
    /// through [`WriteBatch::commit`](crate::WriteBatch::commit) or a
    /// `LoggedWriter`.
    #[cfg(test)]
    pub(crate) fn record_link(&mut self, source: SourceId, local_id: &str, kg: EntityId) {
        self.links
            .entry(source)
            .or_default()
            .insert(Arc::from(local_id), kg);
    }

    /// Look up the KG entity previously linked to `(source, local_id)`.
    ///
    /// This is the id-lookup fast path used for Updated/Deleted payloads
    /// (§2.4: "Updated/Deleted payloads contain entities that are previously
    /// linked, and so we only need to lookup their links in the current KG").
    pub fn lookup_link(&self, source: SourceId, local_id: &str) -> Option<EntityId> {
        self.links.get(&source)?.get(local_id).copied()
    }

    /// All links contributed by a source.
    pub fn links_for_source(&self, source: SourceId) -> Vec<(Arc<str>, EntityId)> {
        self.links.get(&source).map_or_else(Vec::new, |links| {
            links.iter().map(|(l, e)| (Arc::clone(l), *e)).collect()
        })
    }

    /// Non-destructive fact upsert (fusion's outer-join semantics, §2.3):
    ///
    /// * If a fact with the same key *and the same object* exists, the new
    ///   provenance is merged into it (attribution is never lost).
    /// * Otherwise the fact is appended as new knowledge.
    ///
    /// Returns `true` if a brand-new fact was added.
    ///
    /// # Panics
    /// Panics if the triple's subject is not a KG entity — only linked
    /// payloads may be fused.
    pub(crate) fn upsert_fact(&mut self, triple: ExtendedTriple) -> bool {
        let id = triple
            .subject
            .as_kg()
            .expect("only linked (KG-subject) facts can be fused into the graph");
        let record = self
            .entities
            .entry(id)
            .or_insert_with(|| EntityRecord::new(id));
        let added: Vec<crate::DeltaFact> = crate::index::flatten(&triple)
            .map(|(predicate, object)| crate::DeltaFact { predicate, object })
            .into_iter()
            .collect();
        // Record-level outer join (shared with the staged commit path): a
        // provenance-only merge needs no index maintenance (the index is
        // object-level).
        if !record.upsert(triple) {
            return false;
        }
        let delta = Delta {
            entity: id,
            added,
            removed: Vec::new(),
        };
        self.index.apply(&delta);
        true
    }

    /// Remove every attribution of `source`; facts left without provenance
    /// are dropped, and entities left without facts are dropped too.
    ///
    /// Implements on-demand data deletion / license-revocation (§1 challenge
    /// 2). Returns `(facts_dropped, entities_dropped)`.
    /// Reference semantics for the staged commit path — exercised by the
    /// in-crate equivalence property tests; production writers commit
    /// through [`WriteBatch::commit`](crate::WriteBatch::commit) or a
    /// `LoggedWriter`.
    #[cfg(test)]
    pub(crate) fn retract_source(&mut self, source: SourceId) -> (usize, usize) {
        let mut facts_dropped = 0;
        let mut empty: Vec<EntityId> = Vec::new();
        let mut retracted: Vec<(EntityId, Vec<ExtendedTriple>)> = Vec::new();
        for (id, record) in self.entities.iter_mut() {
            let dropped = record.retract_source_facts(source, None);
            facts_dropped += dropped.len();
            if !dropped.is_empty() {
                retracted.push((*id, dropped));
            }
            if record.triples.is_empty() {
                empty.push(*id);
            }
        }
        for id in &empty {
            self.entities.remove(id);
        }
        for (id, dropped) in retracted {
            self.index.remove_facts(id, dropped.iter());
        }
        self.links.remove(&source);
        (facts_dropped, empty.len())
    }

    /// Drop a specific source entity's contribution: used when a source's
    /// *Deleted* partition retracts one entity (§2.4).
    ///
    /// Facts whose only provenance was `(source)` on the linked KG entity
    /// are dropped; the `same_as` link is removed.
    /// Reference semantics for the staged commit path — exercised by the
    /// in-crate equivalence property tests; production writers commit
    /// through [`WriteBatch::commit`](crate::WriteBatch::commit) or a
    /// `LoggedWriter`.
    #[cfg(test)]
    pub(crate) fn retract_source_entity(&mut self, source: SourceId, local_id: &str) -> usize {
        let Some(kg_id) = self.lookup_link(source, local_id) else {
            return 0;
        };
        let mut removed: Vec<ExtendedTriple> = Vec::new();
        if let Some(record) = self.entities.get_mut(&kg_id) {
            removed = record.retract_source_facts(source, None);
            if record.triples.is_empty() {
                self.entities.remove(&kg_id);
            }
        }
        if !removed.is_empty() {
            self.index.remove_facts(kg_id, removed.iter());
        }
        if let Some(links) = self.links.get_mut(&source) {
            links.remove(local_id);
        }
        removed.len()
    }

    /// Overwrite a source's *volatile* partition (§2.4): all facts from
    /// `source` whose predicate is in `volatile_predicates` are replaced by
    /// `fresh` in one pass, without per-fact joins.
    ///
    /// Returns the number of facts dropped (before inserting `fresh`).
    /// Reference semantics for the staged commit path — exercised by the
    /// in-crate equivalence property tests; production writers commit
    /// through [`WriteBatch::commit`](crate::WriteBatch::commit) or a
    /// `LoggedWriter`.
    #[cfg(test)]
    pub(crate) fn overwrite_volatile_partition(
        &mut self,
        source: SourceId,
        volatile_predicates: &crate::FxHashSet<Symbol>,
        fresh: Vec<ExtendedTriple>,
    ) -> usize {
        let mut dropped = 0;
        let mut retracted: Vec<(EntityId, Vec<ExtendedTriple>)> = Vec::new();
        for (id, record) in self.entities.iter_mut() {
            let gone = record.retract_source_facts(source, Some(volatile_predicates));
            dropped += gone.len();
            if !gone.is_empty() {
                retracted.push((*id, gone));
            }
        }
        for (id, gone) in retracted {
            self.index.remove_facts(id, gone.iter());
        }
        for t in fresh {
            // Volatile facts about unknown entities are skipped: the stable
            // payload that creates the entity has not been fused yet.
            if let Some(id) = t.subject.as_kg() {
                if self.contains(id) {
                    self.upsert_fact(t);
                }
            }
        }
        dropped
    }

    /// Extract the sub-graph of entities with ontology type `entity_type` —
    /// the *KG view* the linker matches source payloads against (§2.3 step
    /// 1). Served from the index's type postings, not a graph scan.
    pub fn entities_of_type(&self, entity_type: Symbol) -> Vec<&EntityRecord> {
        self.index
            .by_type(entity_type)
            .iter()
            .filter_map(|id| self.entities.get(&id))
            .collect()
    }

    /// Resolve an entity by exact name or alias (case-sensitive).
    ///
    /// Candidates come from the index's (lowercased) full-phrase posting;
    /// the exact-case filter runs only over that short list.
    pub fn find_by_name(&self, name: &str) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .index
            .by_name(&name.to_lowercase())
            .iter()
            .filter_map(|id| self.entities.get(&id))
            .filter(|r| r.all_names().iter().any(|n| &**n == name))
            .map(|r| r.id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Build a simple adjacency list over resolved entity references —
    /// the structural graph used by PageRank and embeddings.
    pub fn adjacency(&self) -> FxHashMap<EntityId, Vec<EntityId>> {
        let mut adj: FxHashMap<EntityId, Vec<EntityId>> = FxHashMap::default();
        for record in self.entities.values() {
            let entry = adj.entry(record.id).or_default();
            for (_, dst) in record.out_edges() {
                entry.push(dst);
            }
        }
        adj
    }

    /// Convenience: add a named entity with a type.
    ///
    /// Used pervasively by tests, examples and workload generators.
    pub fn add_named_entity(
        &mut self,
        id: EntityId,
        name: &str,
        entity_type: &str,
        source: SourceId,
        trust: f32,
    ) {
        let name_fact = ExtendedTriple::simple(
            id,
            intern(well_known::NAME),
            Value::str(name),
            crate::FactMeta::from_source(source, trust),
        );
        let type_fact = ExtendedTriple::simple(
            id,
            intern(well_known::TYPE),
            Value::str(entity_type),
            crate::FactMeta::from_source(source, trust),
        );
        self.upsert_fact(name_fact);
        self.upsert_fact(type_fact);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FactMeta, FxHashSet, RelId, SubjectRef};

    fn meta(src: u32) -> FactMeta {
        FactMeta::from_source(SourceId(src), 0.9)
    }

    #[test]
    fn upsert_merges_provenance_for_identical_facts() {
        let mut kg = KnowledgeGraph::new();
        let t1 = ExtendedTriple::simple(EntityId(1), intern("name"), Value::str("X"), meta(1));
        let t2 = ExtendedTriple::simple(EntityId(1), intern("name"), Value::str("X"), meta(2));
        assert!(kg.upsert_fact(t1));
        assert!(
            !kg.upsert_fact(t2),
            "same key+object merges, not duplicates"
        );
        let rec = kg.entity(EntityId(1)).unwrap();
        assert_eq!(rec.fact_count(), 1);
        assert_eq!(rec.triples[0].meta.source_count(), 2);
    }

    #[test]
    fn upsert_adds_new_fact_for_different_object() {
        let mut kg = KnowledgeGraph::new();
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(1),
            intern("alias"),
            Value::str("A"),
            meta(1),
        ));
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(1),
            intern("alias"),
            Value::str("B"),
            meta(1),
        ));
        assert_eq!(kg.entity(EntityId(1)).unwrap().fact_count(), 2);
    }

    #[test]
    #[should_panic(expected = "linked")]
    fn upsert_rejects_unlinked_subjects() {
        let mut kg = KnowledgeGraph::new();
        let t = ExtendedTriple::simple(
            SubjectRef::source(SourceId(1), "m1"),
            intern("name"),
            Value::str("X"),
            meta(1),
        );
        kg.upsert_fact(t);
    }

    #[test]
    fn retract_source_drops_orphans_and_empty_entities() {
        let mut kg = KnowledgeGraph::new();
        // fact held by two sources survives; single-source fact dies.
        let mut shared =
            ExtendedTriple::simple(EntityId(1), intern("name"), Value::str("X"), meta(1));
        shared.meta.merge_source(SourceId(2), 0.8);
        kg.upsert_fact(shared);
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(1),
            intern("born"),
            Value::Int(1990),
            meta(1),
        ));
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(2),
            intern("name"),
            Value::str("Y"),
            meta(1),
        ));
        kg.record_link(SourceId(1), "y", EntityId(2));

        let (facts, entities) = kg.retract_source(SourceId(1));
        assert_eq!(facts, 2, "born(X) and name(Y) orphaned");
        assert_eq!(entities, 1, "entity 2 fully dropped");
        assert!(kg.contains(EntityId(1)));
        assert!(!kg.contains(EntityId(2)));
        assert_eq!(kg.lookup_link(SourceId(1), "y"), None);
        let rec = kg.entity(EntityId(1)).unwrap();
        assert_eq!(rec.fact_count(), 1);
        assert!(!rec.triples[0].meta.has_source(SourceId(1)));
    }

    #[test]
    fn retract_source_entity_targets_one_link() {
        let mut kg = KnowledgeGraph::new();
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(1),
            intern("name"),
            Value::str("X"),
            meta(1),
        ));
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(2),
            intern("name"),
            Value::str("Y"),
            meta(1),
        ));
        kg.record_link(SourceId(1), "x", EntityId(1));
        kg.record_link(SourceId(1), "y", EntityId(2));

        let dropped = kg.retract_source_entity(SourceId(1), "x");
        assert_eq!(dropped, 1);
        assert!(!kg.contains(EntityId(1)));
        assert!(kg.contains(EntityId(2)), "other entity untouched");
        assert_eq!(kg.lookup_link(SourceId(1), "y"), Some(EntityId(2)));
    }

    #[test]
    fn volatile_partition_overwrite_replaces_without_joins() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Song A", "song", SourceId(1), 0.9);
        let pop = intern(well_known::POPULARITY);
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(1),
            pop,
            Value::Int(10),
            meta(1),
        ));

        let mut volatile = FxHashSet::default();
        volatile.insert(pop);
        let fresh = vec![ExtendedTriple::simple(
            EntityId(1),
            pop,
            Value::Int(999),
            meta(1),
        )];
        let dropped = kg.overwrite_volatile_partition(SourceId(1), &volatile, fresh);
        assert_eq!(dropped, 1);
        let rec = kg.entity(EntityId(1)).unwrap();
        assert_eq!(rec.values(pop), vec![&Value::Int(999)]);
        // Stable facts (name/type) untouched.
        assert_eq!(rec.name(), Some("Song A"));
    }

    #[test]
    fn volatile_overwrite_skips_unknown_entities() {
        let mut kg = KnowledgeGraph::new();
        let pop = intern(well_known::POPULARITY);
        let mut volatile = FxHashSet::default();
        volatile.insert(pop);
        let fresh = vec![ExtendedTriple::simple(
            EntityId(77),
            pop,
            Value::Int(1),
            meta(1),
        )];
        kg.overwrite_volatile_partition(SourceId(1), &volatile, fresh);
        assert!(!kg.contains(EntityId(77)));
    }

    #[test]
    fn entities_of_type_extracts_kg_view() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "A", "music_artist", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "B", "song", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(3), "C", "music_artist", SourceId(1), 0.9);
        let artists = kg.entities_of_type(intern("music_artist"));
        let mut ids: Vec<EntityId> = artists.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![EntityId(1), EntityId(3)]);
    }

    #[test]
    fn stats_and_find_by_name() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(
            EntityId(1),
            "Billie Eilish",
            "music_artist",
            SourceId(1),
            0.9,
        );
        kg.record_link(SourceId(1), "a1", EntityId(1));
        let s = kg.stats();
        assert_eq!(s.entities, 1);
        assert_eq!(s.facts, 2);
        assert_eq!(s.links, 1);
        assert_eq!(kg.find_by_name("Billie Eilish"), vec![EntityId(1)]);
        assert!(kg.find_by_name("nobody").is_empty());
    }

    #[test]
    fn adjacency_reflects_out_edges() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "A", "person", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "B", "person", SourceId(1), 0.9);
        kg.upsert_fact(ExtendedTriple::simple(
            EntityId(1),
            intern("spouse"),
            Value::Entity(EntityId(2)),
            meta(1),
        ));
        let adj = kg.adjacency();
        assert_eq!(adj[&EntityId(1)], vec![EntityId(2)]);
        assert!(adj[&EntityId(2)].is_empty());
    }

    #[test]
    fn volatile_overwrite_churn_keeps_dictionary_bounded() {
        let mut kg = KnowledgeGraph::new();
        kg.add_named_entity(EntityId(1), "Song A", "song", SourceId(1), 0.9);
        kg.add_named_entity(EntityId(2), "Song B", "song", SourceId(1), 0.9);
        let pop = intern(well_known::POPULARITY);
        let mut volatile = FxHashSet::default();
        volatile.insert(pop);
        // Popularity ints past the immediate range, so each takes a slot.
        let popularity = |i: i64| Value::Int((1 << 40) + i);
        let overwrite = |kg: &mut KnowledgeGraph, one: Value, two: Value| {
            let fresh = vec![
                ExtendedTriple::simple(EntityId(1), pop, one, meta(1)),
                ExtendedTriple::simple(EntityId(2), pop, two, meta(1)),
            ];
            kg.overwrite_volatile_partition(SourceId(1), &volatile, fresh);
        };
        for cycle in 0..500i64 {
            overwrite(&mut kg, popularity(cycle), popularity(cycle + 7));
        }
        // Live entries: 2 names + 1 shared type + 2 current popularity ints.
        assert_eq!(kg.index().obj_dict_len(), 5);
        let slots = kg.index().obj_dict_slots();
        assert!(
            slots <= 8,
            "per-cycle ints must be recycled, not accumulated: {slots} slots"
        );
        // Ints in the immediate range take no slot at all.
        for cycle in 0..500i64 {
            overwrite(&mut kg, Value::Int(cycle), Value::Int(cycle + 7));
        }
        assert_eq!(kg.index().obj_dict_len(), 3, "2 names + 1 shared type");
        assert_eq!(kg.index().obj_dict_slots(), slots);
    }

    #[test]
    fn composite_facts_upsert_by_rel_identity() {
        let mut kg = KnowledgeGraph::new();
        let edu = intern("educated_at");
        kg.upsert_fact(ExtendedTriple::composite(
            EntityId(1),
            edu,
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(1),
        ));
        // Same facet+object from another source merges.
        assert!(!kg.upsert_fact(ExtendedTriple::composite(
            EntityId(1),
            edu,
            RelId(1),
            intern("school"),
            Value::str("UW"),
            meta(2),
        )));
        // Different rel node is a new fact.
        assert!(kg.upsert_fact(ExtendedTriple::composite(
            EntityId(1),
            edu,
            RelId(2),
            intern("school"),
            Value::str("UW"),
            meta(2),
        )));
        assert_eq!(kg.entity(EntityId(1)).unwrap().fact_count(), 2);
    }
}
